//! Export a simulated [`DramModule`] to CBDF and import it back.
//!
//! This is the bridge between the capture side (the transplant simulation
//! in `coldboot-dram`) and the file-backed analysis side: the exported
//! header carries the module's serial and temperature at capture plus the
//! transfer time, so a dump on disk retains everything the attack
//! pipeline would otherwise read off the live module.

use std::io::{Read, Write};

use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::module::DramModule;

use crate::error::DumpError;
use crate::format::{DumpMeta, DEFAULT_CHUNK_BLOCKS};
use crate::reader::DumpReader;
use crate::writer::DumpWriter;

/// Writes `module`'s contents to `sink` as a CBDF image based at physical
/// address 0, recording its serial and current temperature.
///
/// # Errors
///
/// Any failure mode of [`DumpWriter`].
pub fn export_module<W: Write>(
    module: &DramModule,
    geometry: Option<DramGeometry>,
    transfer_seconds: f64,
    sink: W,
) -> Result<W, DumpError> {
    let meta = DumpMeta {
        serial: module.serial(),
        base_addr: 0,
        total_bytes: module.len() as u64,
        chunk_blocks: DEFAULT_CHUNK_BLOCKS,
        geometry,
        capture_temp_c: module.temperature_c(),
        transfer_seconds,
    };
    let mut w = DumpWriter::new(sink, meta)?;
    w.append(module.contents())?;
    w.finish()
}

/// Rebuilds a [`DramModule`] from a CBDF image: contents, serial, and
/// capture temperature all come from the file.
///
/// # Errors
///
/// Any failure mode of [`DumpReader`]; additionally
/// [`DumpError::HeaderCorrupt`] for an empty image, which cannot back a
/// module.
pub fn import_module<R: Read>(source: R) -> Result<DramModule, DumpError> {
    let mut r = DumpReader::new(source)?;
    let meta = r.meta().clone();
    if meta.total_bytes == 0 {
        return Err(DumpError::HeaderCorrupt("empty image cannot back a module"));
    }
    let dump = r.read_to_memory()?;
    Ok(DramModule::restore(
        meta.serial,
        dump.bytes().to_vec(),
        meta.capture_temp_c,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn module_roundtrip_preserves_identity() {
        let mut module = DramModule::new(64 * 256, 0xC0FFEE);
        module.fill(0);
        module.write(0x400, &[0xAB; 64]);
        module.set_temperature(-25.0);
        let file =
            export_module(&module, Some(DramGeometry::tiny_test()), 5.0, Vec::new()).unwrap();
        let restored = import_module(Cursor::new(&file)).unwrap();
        assert_eq!(restored.serial(), module.serial());
        assert_eq!(restored.contents(), module.contents());
        assert_eq!(restored.temperature_c(), module.temperature_c());

        let r = DumpReader::new(Cursor::new(&file)).unwrap();
        assert_eq!(r.meta().geometry, Some(DramGeometry::tiny_test()));
        assert_eq!(r.meta().transfer_seconds, 5.0);
    }
}

//! Platform arm of `lossy-len-cast`: a `u64` record length narrowed to
//! `usize`, which truncates on 32-bit targets.

pub fn skip_record(record_len: u64) -> usize {
    record_len as usize
}

//! Key material derived on the spawner and printed by the spawned thread:
//! the `move` capture keeps the taint.

pub fn announce(seed: u64) {
    let material = derive_key(seed);
    let handle = std::thread::spawn(move || {
        println!("derived: {material:?}");
    });
    let _ = handle.join();
}

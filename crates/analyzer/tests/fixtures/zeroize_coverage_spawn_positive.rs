//! Zeroize-coverage fixture (positive): the key-derived buffer is computed
//! by the spawner and stashed by the spawned thread. The closure's
//! reference to `ks` names the spawner's `keystream` call.

pub struct Stash {
    pub buf: Vec<u8>,
}

pub fn capture(addr: u64) -> std::thread::JoinHandle<Stash> {
    let ks = crate::scramble::keystream(addr);
    std::thread::spawn(move || Stash { buf: ks })
}

//! A length computed by the spawner and narrowed inside a scoped worker
//! closure: the capture carries the length taint into the thread body.

pub fn split_words(buf: &[u8]) {
    let total = buf.len();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let words = total as u32;
            let _ = words;
        });
    });
}

//! Length taint follows a plain assignment and a destructuring `let`.

pub fn header_words(buf: &[u8]) -> u32 {
    let mut words = 0;
    words = buf.len() / 4;
    words as u32
}

pub fn first_len(lens: &[usize]) -> u16 {
    let Some(n) = lens.first().copied() else {
        return 0;
    };
    n as u16
}

//! A plain reassignment replaces the binding's value: once `material` is
//! overwritten with zeros, printing it leaks nothing.

pub fn report(store: &Store) {
    let mut material = store.master_key;
    material = [0u8; 32];
    println!("cleared: {material:?}");
}

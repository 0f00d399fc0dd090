pub fn report(store: &Store) {
    if let Some(material) = store.master_key {
        println!("debug: {material:?}");
    }
}

//! A secret-returning helper called directly inside the print macro: no
//! binding carries the taint, the argument's value does.

pub struct State {
    pub master_key: [u8; 32],
}

pub fn export_material(state: &State) -> Vec<u8> {
    state.master_key.to_vec()
}

pub fn report(state: &State) {
    println!("recovered: {:02x?}", export_material(state));
}

//! Integration test: the §II-C / §III-B generational story, exercised
//! through complete machines — DDR3's fatal reboot collapse, DDR4's
//! resistance to the old attack, and the BIOS seed-reuse bug.

use coldboot::attack::{ddr3, zero_fill_key_extraction};
use coldboot::dump::MemoryDump;
use coldboot::litmus::{mine_candidate_keys, scrambler_key_litmus, MiningConfig};
use coldboot::stats;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use std::collections::HashSet;

fn geometry() -> DramGeometry {
    DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    }
}

#[test]
fn ddr3_reboot_collapse_recovers_plaintext() {
    let mut m = Machine::new(
        Microarchitecture::SandyBridge,
        geometry(),
        BiosConfig::default(),
        1,
    );
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, 1))
        .expect("fresh socket");
    m.fill(0).expect("module present");
    let secret = b"sixteen keys collapse to one";
    m.write(0x5000, secret).expect("in range");
    m.reboot();
    let view = MemoryDump::new(m.dump(0, size).expect("module present"), 0);
    let uni = ddr3::universal_key(&view).expect("dump has blocks");
    let plain = ddr3::descramble_all(&view, &uni.key);
    assert_eq!(&plain[0x5000..0x5000 + secret.len()], secret);
}

#[test]
fn ddr4_resists_the_ddr3_attack() {
    let mut m = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        2,
    );
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, 1))
        .expect("fresh socket");
    m.fill(0).expect("module present");
    let secret = b"sixteen keys collapse to one";
    m.write(0x5000, secret).expect("in range");
    m.reboot();
    let view = MemoryDump::new(m.dump(0, size).expect("module present"), 0);
    let uni = ddr3::universal_key(&view).expect("dump has blocks");
    let plain = ddr3::descramble_all(&view, &uni.key);
    assert_ne!(&plain[0x5000..0x5000 + secret.len()], secret);
    // The after-reboot view has thousands of keystream classes, not one.
    let mut zeros = vec![0u8; size];
    zeros[0x5000..0x5000 + secret.len()].copy_from_slice(secret);
    let classes = stats::cross_dump_xor_classes(&view, &MemoryDump::new(zeros, 0));
    assert!(classes >= 4096, "only {classes} classes");
}

#[test]
fn ddr4_key_pool_is_256x_larger_than_ddr3() {
    let mut ddr3_machine = Machine::new(
        Microarchitecture::SandyBridge,
        geometry(),
        BiosConfig::default(),
        3,
    );
    let mut ddr4_machine = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        4,
    );
    let k3: HashSet<_> = zero_fill_key_extraction(&mut ddr3_machine, 1)
        .expect("socket free")
        .into_iter()
        .map(|(_, k)| k)
        .collect();
    let k4: HashSet<_> = zero_fill_key_extraction(&mut ddr4_machine, 2)
        .expect("socket free")
        .into_iter()
        .map(|(_, k)| k)
        .collect();
    assert_eq!(k3.len(), 16);
    assert_eq!(k4.len(), 4096);
    assert_eq!(k4.len() / k3.len(), 256);
}

#[test]
fn mining_a_machine_dump_finds_true_scrambler_keys() {
    // The attacker-side view: mine keys from a dump taken through a second
    // scrambler and check each candidate against ground truth (victim key
    // xor attacker key).
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        5,
    );
    let size = victim.capacity() as usize;
    victim
        .insert_module(DramModule::new(size, 9))
        .expect("fresh socket");
    victim.fill(0).expect("module present");
    let module = victim.remove_module().expect("socketed");
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        6,
    );
    attacker.insert_module(module).expect("fresh socket");
    let dump = MemoryDump::new(attacker.dump(0, size).expect("module present"), 0);

    let found = mine_candidate_keys(&dump, &MiningConfig::default());
    assert_eq!(found.len(), 4096);
    let truth: HashSet<[u8; 64]> = (0..size as u64)
        .step_by(64)
        .map(|addr| {
            let kv = victim.transform().keystream(addr);
            let ka = attacker.transform().keystream(addr);
            core::array::from_fn(|i| kv[i] ^ ka[i])
        })
        .collect();
    for cand in &found {
        assert!(truth.contains(&cand.key), "mined a non-key");
        assert!(scrambler_key_litmus(&cand.key, 0));
    }
}

#[test]
fn buggy_bios_reuses_keys_across_reboots() {
    let mut m = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::buggy_seed_reuse(),
        7,
    );
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, 1))
        .expect("fresh socket");
    let secret = b"the vendor never reseeded";
    m.write(0x7000, secret).expect("in range");
    m.reboot();
    // Same seed, same keys: the data survives reboot in plaintext view.
    let mut buf = vec![0u8; secret.len()];
    m.read(0x7000, &mut buf).expect("in range");
    assert_eq!(&buf, secret);
}

#[test]
fn key_mapping_inference_identifies_selector_bits() {
    // The paper's §III-B conclusion ("keys appear to be generated using ...
    // portions of the physical address bits"), derived automatically.
    let mut ddr4_machine = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        11,
    );
    let obs = zero_fill_key_extraction(&mut ddr4_machine, 3).expect("socket free");
    let inf = coldboot::keymap::infer_key_mapping(&obs).expect("non-empty observations");
    assert_eq!(inf.distinct_keys, 4096);
    assert_eq!(inf.period_blocks, Some(4096));
    // 12 selector bits => 4096-key pool, exactly the low block-index bits.
    assert_eq!(inf.selector_bits, (6..18).collect::<Vec<u32>>());
    assert_eq!(inf.implied_pool_size(), 4096);

    let mut ddr3_machine = Machine::new(
        Microarchitecture::SandyBridge,
        geometry(),
        BiosConfig::default(),
        12,
    );
    let obs = zero_fill_key_extraction(&mut ddr3_machine, 4).expect("socket free");
    let inf = coldboot::keymap::infer_key_mapping(&obs).expect("non-empty observations");
    assert_eq!(inf.distinct_keys, 16);
    assert_eq!(inf.selector_bits, (6..10).collect::<Vec<u32>>());
}

#[test]
fn bios_toggle_rig_reads_scrambled_cells_in_place() {
    // §III-A's fastest analysis setup: "a DDR4-based motherboard that
    // allowed us to reboot an initially scrambled machine with the memory
    // scramblers turned off — without destroying the scrambled DRAM
    // contents from the previous boot cycle."
    let mut m = Machine::new(
        Microarchitecture::Skylake,
        geometry(),
        BiosConfig::default(),
        21,
    );
    let size = m.capacity() as usize;
    m.insert_module(DramModule::new(size, 77))
        .expect("fresh socket");
    m.fill(0).expect("module present");
    let keys_truth: Vec<[u8; 64]> = (0..size as u64)
        .step_by(64)
        .map(|addr| m.transform().keystream(addr))
        .collect();

    // Enter BIOS setup, disable the scrambler, warm-reboot.
    m.reboot_with_bios(BiosConfig::scrambler_disabled());
    assert_eq!(m.transform_name(), "plaintext (no scrambling)");

    // The previous boot's scrambled zeros are now read raw: every block is
    // the old boot's key.
    let view = m.dump(0, size).expect("module present");
    for (i, block) in view.chunks_exact(64).enumerate() {
        assert_eq!(block, &keys_truth[i][..], "block {i}");
    }
}

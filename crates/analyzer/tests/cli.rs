//! End-to-end tests of the `coldboot-lint` binary: `--deny` exit codes
//! and `--baseline` suppression.
//!
//! These need the built binary, which only cargo provides
//! (`CARGO_BIN_EXE_*`); under the offline direct-rustc harness the env
//! var is absent at compile time and the tests no-op (the same flows are
//! driven by hand against `target/lintdev/coldboot-lint` there).

use std::path::Path;
use std::process::Command;

const BIN: Option<&str> = option_env!("CARGO_BIN_EXE_coldboot-lint");

const DIRTY: &str = "pub fn intern(v: &[u8]) -> u32 { let n = v.len(); n as u32 }\n";

fn write_workspace(root: &Path, source: &str) {
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("lib.rs"), source).expect("write");
}

fn run(bin: &str, root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(bin)
        .arg("--root")
        .arg(root)
        .arg("--no-cache")
        .args(extra)
        .output()
        .expect("spawn coldboot-lint")
}

#[test]
fn warn_mode_exits_zero_deny_exits_one() {
    let Some(bin) = BIN else { return };
    let root = std::env::temp_dir().join(format!("coldboot-lint-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_workspace(&root, DIRTY);

    let warn = run(bin, &root, &[]);
    assert_eq!(warn.status.code(), Some(0), "warn mode reports but passes");
    assert!(String::from_utf8_lossy(&warn.stdout).contains("lossy-len-cast"));

    let deny = run(bin, &root, &["--deny"]);
    assert_eq!(deny.status.code(), Some(1), "--deny fails on findings");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn baseline_suppresses_and_unknown_flag_is_usage_error() {
    let Some(bin) = BIN else { return };
    let root = std::env::temp_dir().join(format!("coldboot-lint-cli-bl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_workspace(&root, DIRTY);
    let baseline = root.join("lint-baseline.txt");

    let write = run(
        bin,
        &root,
        &["--write-baseline", baseline.to_str().expect("utf8 path")],
    );
    assert_eq!(write.status.code(), Some(0));

    let denied = run(
        bin,
        &root,
        &[
            "--deny",
            "--baseline",
            baseline.to_str().expect("utf8 path"),
        ],
    );
    assert_eq!(
        denied.status.code(),
        Some(0),
        "baselined findings must not fail --deny: {}",
        String::from_utf8_lossy(&denied.stdout)
    );

    let usage = run(bin, &root, &["--frobnicate"]);
    assert_eq!(
        usage.status.code(),
        Some(2),
        "unknown flags are usage errors"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sarif_output_is_well_formed() {
    let Some(bin) = BIN else { return };
    let root = std::env::temp_dir().join(format!("coldboot-lint-cli-sarif-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_workspace(&root, DIRTY);

    let out = run(bin, &root, &["--format", "sarif"]);
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.contains("\"version\":\"2.1.0\""), "{doc}");
    assert!(doc.contains("\"ruleId\":\"lossy-len-cast\""), "{doc}");

    let _ = std::fs::remove_dir_all(&root);
}

//! Tier-1 CI gate: the workspace stays `rustfmt`-clean.
//!
//! The tree was formatted once with `cargo fmt --all`; this keeps it that
//! way, so a diff never mixes a change with reformatting. It shells out
//! to `cargo fmt --all -- --check`, which covers every workspace member
//! (perfbench/ is not one) and prints the offending hunks on failure.
//! Run `cargo fmt --all` to fix.

use std::path::Path;
use std::process::Command;

#[test]
fn workspace_is_rustfmt_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(&cargo)
        .args(["fmt", "--all", "--", "--check"])
        .current_dir(root)
        .output()
        .expect("failed to spawn cargo fmt --check");
    assert!(
        output.status.success(),
        "cargo fmt --all -- --check failed ({}); run `cargo fmt --all`:\n{}{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

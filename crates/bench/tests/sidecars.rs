//! Checked-in experiment sidecars must still reproduce: a run of the
//! experiment binary under three threads writes the same bytes as
//! `experiments/`.
//!
//! E10 (clique-MIS at n = 512…8192) is the cheap one that covers the
//! executor-parallel local MIS stage: from n = 1024 up it runs no
//! prefix phase, and from n = 2048 up that stage spans 2–8 chunks.
//!
//! E4, E5, E6, E8, E9, E11, E12 and E13 run `MPC-Simulation`, through
//! its phases and its direct tail. E6 and E9 take a few seconds in a
//! debug build and run with the suite; the others take half a minute or
//! more there (0.9–6 s in release), so they are `#[ignore]`d and CI runs
//! them in release:
//!
//! ```text
//! cargo test --release -q --locked -p mmvc-bench --test sidecars -- --ignored
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Runs the experiment binary `exe` (named `name`) on three threads and
/// asserts that the sidecar it writes equals the checked-in one.
fn assert_reproduces(name: &str, exe: &str) {
    let dir = std::env::temp_dir().join(format!("mmvc-sidecars-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp sidecar dir");
    let status = Command::new(exe)
        .env("MMVC_EXECUTOR", "3")
        .env("MMVC_JSON_DIR", &dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let written = std::fs::read(dir.join(format!("{name}.json")));
    std::fs::remove_dir_all(&dir).expect("remove temp sidecar dir");
    assert!(
        status.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    let checked_in = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments")
        .join(format!("{name}.json"));
    let expected = std::fs::read(&checked_in).expect("read checked-in sidecar");
    assert!(
        written.unwrap_or_else(|e| panic!("{name} writes its sidecar: {e}")) == expected,
        "{name}.json no longer reproduces {}",
        checked_in.display()
    );
}

#[test]
fn exp_e10_sidecar_reproduces_under_three_threads() {
    assert_reproduces("exp_e10", env!("CARGO_BIN_EXE_exp_e10"));
}

#[test]
fn exp_e6_sidecar_reproduces() {
    assert_reproduces("exp_e6", env!("CARGO_BIN_EXE_exp_e6"));
}

#[test]
fn exp_e9_sidecar_reproduces() {
    assert_reproduces("exp_e9", env!("CARGO_BIN_EXE_exp_e9"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e4_sidecar_reproduces() {
    assert_reproduces("exp_e4", env!("CARGO_BIN_EXE_exp_e4"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e5_sidecar_reproduces() {
    assert_reproduces("exp_e5", env!("CARGO_BIN_EXE_exp_e5"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e8_sidecar_reproduces() {
    assert_reproduces("exp_e8", env!("CARGO_BIN_EXE_exp_e8"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e11_sidecar_reproduces() {
    assert_reproduces("exp_e11", env!("CARGO_BIN_EXE_exp_e11"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e12_sidecar_reproduces() {
    assert_reproduces("exp_e12", env!("CARGO_BIN_EXE_exp_e12"));
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn exp_e13_sidecar_reproduces() {
    assert_reproduces("exp_e13", env!("CARGO_BIN_EXE_exp_e13"));
}

//! Checked-in experiment sidecars must still reproduce: a run of the
//! experiment binary writes the same bytes as `experiments/`.
//!
//! E10 (clique-MIS at n = 512…8192) is the cheap one that covers the
//! executor-parallel local MIS stage: from n = 1024 up it runs no
//! prefix phase, and from n = 2048 up that stage spans 2–8 chunks.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn exp_e10_sidecar_reproduces_under_three_threads() {
    let dir = std::env::temp_dir().join(format!("mmvc-sidecars-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp sidecar dir");
    let status = Command::new(env!("CARGO_BIN_EXE_exp_e10"))
        .env("MMVC_EXECUTOR", "3")
        .env("MMVC_JSON_DIR", &dir)
        .output()
        .expect("spawn exp_e10");
    let written = std::fs::read(dir.join("exp_e10.json"));
    std::fs::remove_dir_all(&dir).expect("remove temp sidecar dir");
    assert!(
        status.status.success(),
        "exp_e10 failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    let checked_in =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments/exp_e10.json");
    let expected = std::fs::read(&checked_in).expect("read checked-in sidecar");
    assert!(
        written.expect("exp_e10 writes its sidecar") == expected,
        "exp_e10.json no longer reproduces {}",
        checked_in.display()
    );
}

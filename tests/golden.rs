//! Golden digests: the canonical report bytes of a fixed spec matrix,
//! pinned to `tests/golden/canonical.tsv`.
//!
//! Each line of that file is `kind, scenario, n, seed` and the 64-bit
//! FNV-1a digest of `canonical_report_body` for that spec — the exact
//! bytes `mmvc serve` caches and `mmvc run --canonical` prints. Every
//! spec runs under the sequential executor and on three threads, and
//! both runs must match the checked-in line.
//!
//! The file's header names the report format version,
//! [`mmvc::core::REPORT_FORMAT_VERSION`]. On a mismatch the test lists
//! the specs that moved. While the constant still equals the header's
//! version it stops there and asks for the bump, so no byte move can be
//! blessed without one. Once the constant differs, it writes the
//! complete regenerated file under `CARGO_TARGET_TMPDIR`; copying that
//! over the checked-in one, in the commit that bumps the version, blesses
//! the change, and the diff names every digest that moved.

use mmvc::core::run::{run, AlgorithmKind, RunSpec};
use mmvc::core::REPORT_FORMAT_VERSION;
use mmvc::graph::scenarios;
use mmvc::serve::{canonical_report_body, fnv1a};
use mmvc::substrate::ExecutorConfig;
use std::path::PathBuf;

const VERSION_LINE: &str = "# report format version ";

fn header(version: u32) -> String {
    format!(
        "# Canonical report digests, checked by tests/golden.rs.\n\
         {VERSION_LINE}{version} (mmvc_core::REPORT_FORMAT_VERSION)\n\
         # kind\tscenario\tn\tseed\tfnv1a(canonical_report_body)\n"
    )
}

fn spec(kind: AlgorithmKind, scenario: &str, n: usize, space_factor: Option<f64>) -> RunSpec {
    let mut spec = RunSpec::new(kind, scenario);
    spec.n = Some(n);
    spec.seed = 7;
    spec.overrides.space_factor = space_factor;
    spec
}

/// The pinned matrix, in file order.
fn golden_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    // Every kind on every scenario at n = 96, with the space factor of
    // `tests/run_driver.rs`'s smoke matrix.
    for kind in AlgorithmKind::ALL {
        for sc in scenarios::all() {
            specs.push(spec(kind, sc.name, 96, Some(32.0)));
        }
    }
    // The MIS kinds where the local stage spans several chunks.
    for kind in [
        AlgorithmKind::GreedyMis,
        AlgorithmKind::CliqueMis,
        AlgorithmKind::LocalMis,
    ] {
        specs.push(spec(kind, "gnp-sparse", 4096, None));
    }
    // MPC-Simulation where its tail spans several chunks: after phases
    // (power-law), and after a long ramp of no-op iterations (gnp-mid).
    for scenario in ["power-law", "gnp-mid"] {
        specs.push(spec(AlgorithmKind::MpcMatching, scenario, 4096, None));
    }
    // perfbench cold-run's three specs, at reduced n.
    for (kind, scenario, n) in [
        (AlgorithmKind::GreedyMis, "scale-gnp-1m", 1 << 14),
        (AlgorithmKind::OnePlusEpsMatching, "power-law", 2048),
        (AlgorithmKind::VertexCover, "geometric", 2048),
    ] {
        specs.push(spec(kind, scenario, n, None));
    }
    specs
}

fn line(spec: &RunSpec, digest: u64) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{digest:016x}\n",
        spec.algorithm.name(),
        spec.scenario,
        spec.n.expect("golden specs fix n"),
        spec.seed
    )
}

/// The file's lines for every spec, run on `executor`.
fn regenerate(specs: &[RunSpec], executor: ExecutorConfig) -> Vec<String> {
    specs
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            spec.executor = executor.clone();
            let report = run(&spec)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.algorithm, spec.scenario));
            line(&spec, fnv1a(&canonical_report_body(report)))
        })
        .collect()
}

#[test]
fn canonical_bytes_match_checked_in_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/canonical.tsv");
    let checked_in = std::fs::read_to_string(&path).unwrap_or_default();
    let expected: Vec<&str> = checked_in.lines().filter(|l| !l.starts_with('#')).collect();
    let checked_in_version = checked_in.lines().find_map(|l| {
        let rest = l.strip_prefix(VERSION_LINE)?;
        rest.split(' ').next()?.parse::<u32>().ok()
    });

    let specs = golden_specs();
    let (sequential, threaded) = std::thread::scope(|s| {
        let seq = s.spawn(|| regenerate(&specs, ExecutorConfig::sequential()));
        let thr = s.spawn(|| regenerate(&specs, ExecutorConfig::with_threads(3)));
        (seq.join().unwrap(), thr.join().unwrap())
    });

    let mut moved = Vec::new();
    for (i, (seq, thr)) in sequential.iter().zip(&threaded).enumerate() {
        let want = expected.get(i).copied();
        if want != Some(seq.trim_end()) || want != Some(thr.trim_end()) {
            moved.push(format!(
                "  spec {}: checked in {:?}, sequential {:?}, 3 threads {:?}",
                i + 1,
                want.unwrap_or("<missing>"),
                seq.trim_end(),
                thr.trim_end()
            ));
        }
    }
    if expected.len() > specs.len() {
        moved.push(format!(
            "  {} checked-in lines have no spec",
            expected.len() - specs.len()
        ));
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden/canonical.tsv");
    // A file left by an earlier run must not pass for this run's.
    let _ = std::fs::remove_file(&out);
    if checked_in_version == Some(REPORT_FORMAT_VERSION) {
        assert!(
            moved.is_empty(),
            "{} golden specs moved:\n{}\n\
             the canonical bytes changed at report format version {REPORT_FORMAT_VERSION}: \
             if the change is deliberate, bump mmvc_core::REPORT_FORMAT_VERSION \
             and run this test again to regenerate {}",
            moved.len(),
            moved.join("\n"),
            path.display()
        );
        return;
    }
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let regenerated = format!("{}{}", header(REPORT_FORMAT_VERSION), sequential.concat());
    std::fs::write(&out, regenerated).unwrap();
    panic!(
        "{} names report format version {}, the code {REPORT_FORMAT_VERSION}; \
         {} golden specs moved:\n{}\n\
         regenerated file (sequential executor): {}\n\
         copy it over {} in the commit that bumps the version",
        path.display(),
        checked_in_version.map_or("none".to_string(), |v| v.to_string()),
        moved.len(),
        moved.join("\n"),
        out.display(),
        path.display()
    );
}

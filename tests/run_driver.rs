//! Integration tests for the unified run driver: spec → report
//! determinism (byte-identical JSON), scenario-registry seeding pins,
//! executor invariance, and the full algorithm × scenario smoke matrix.

use mmvc::core::json::Json;
use mmvc::core::run::{build_scenario, run, run_on, AlgorithmKind, RunReport, RunSpec};
use mmvc::graph::scenarios;
use mmvc::serve::canonical_report_body;
use mmvc::substrate::ExecutorConfig;

fn small_spec(kind: AlgorithmKind, scenario: &str) -> RunSpec {
    let mut spec = RunSpec::new(kind, scenario);
    spec.n = Some(96);
    spec.seed = 7;
    // At n ~ 100 the `8n`-word budget is not meaningfully "O(n)" and the
    // dense stress scenarios can brush against it; these tests check the
    // driver pipeline, not the asymptotic budget (the experiments do).
    spec.overrides.space_factor = Some(32.0);
    spec
}

fn canonical_json(report: RunReport) -> String {
    String::from_utf8(canonical_report_body(report)).expect("reports render as UTF-8")
}

#[test]
fn same_spec_yields_byte_identical_json() {
    for kind in [
        AlgorithmKind::GreedyMis,
        AlgorithmKind::MpcMatching,
        AlgorithmKind::WeightedMatching,
    ] {
        let spec = small_spec(kind, "gnp-sparse");
        let a = canonical_json(run(&spec).unwrap());
        let b = canonical_json(run(&spec).unwrap());
        assert_eq!(a, b, "{kind} report must be deterministic");
        assert!(a.contains(&format!("\"algorithm\": \"{}\"", kind.name())));
    }
}

#[test]
fn scenario_registry_seeding_pins() {
    // (name, vertices, edges) at n = 256, seed 0xC0FFEE. These pin the
    // generator streams behind every named workload: a change here is a
    // reproducibility break for every experiment and bench artifact.
    let pins = [
        ("gnp-sparse", 256, 1009),
        ("gnp-mid", 256, 8148),
        ("gnp-dense", 256, 4028),
        ("gnm", 256, 1024),
        ("bipartite", 256, 972),
        ("power-law", 256, 974),
        ("geometric", 256, 1346),
        ("grid", 256, 480),
        ("ring-lattice", 256, 767),
        ("planted-matching", 256, 633),
        ("star-stress", 256, 252),
        ("clique-stress", 256, 3968),
        ("barabasi-albert", 256, 1014),
        ("sbm", 256, 590),
        // Scale-tier entries, pinned at the same small probe size: at
        // n = 256 every chunked generator collapses to its single-chunk
        // (historical) stream, so these values double as the proof that
        // the parallel samplers preserved the legacy streams.
        ("scale-gnp-1m", 256, 1009),
        ("scale-gnp-2m", 256, 1009),
        ("scale-gnm-1m", 256, 1024),
        ("scale-grid-1m", 256, 480),
        ("scale-ba-1m", 256, 2012),
        ("scale-bipartite-1m", 256, 972),
        ("scale-geometric-1m", 256, 1346),
        ("scale-planted-1m", 256, 633),
        ("scale-ring-1m", 256, 767),
        ("scale-gnp-16m", 256, 1009),
        ("scale-gnm-16m", 256, 1024),
    ];
    assert_eq!(
        pins.len(),
        scenarios::all().len(),
        "pin every registered scenario"
    );
    for (name, n, m) in pins {
        let g = scenarios::get(name)
            .unwrap_or_else(|| panic!("scenario {name} vanished"))
            .build_with(256, 0xC0FFEE)
            .unwrap();
        assert_eq!(g.num_vertices(), n, "{name} vertex count moved");
        assert_eq!(g.num_edges(), m, "{name} edge count moved");
    }
}

#[test]
fn every_algorithm_runs_every_small_scenario() {
    // The acceptance matrix: every kind × every registered scenario
    // through the one run(spec) entry point, witnesses validated.
    for kind in AlgorithmKind::ALL {
        for sc in scenarios::all() {
            let spec = small_spec(kind, sc.name);
            let report = run(&spec).unwrap_or_else(|e| panic!("{kind} on {} failed: {e}", sc.name));
            assert!(report.ok(), "{kind} on {} did not validate", sc.name);
            assert!(!report.witnesses.is_empty(), "{kind} emitted no witness");
            Json::parse(&canonical_json(report))
                .unwrap_or_else(|e| panic!("{kind} on {}: malformed report: {e}", sc.name));
        }
    }
}

#[test]
fn executor_choice_never_changes_a_report() {
    // Sequential vs Threaded{2} must agree byte-for-byte (minus wall
    // time) for every algorithm kind — the round engine's determinism
    // contract surfaced at the driver level.
    for kind in AlgorithmKind::ALL {
        let mut seq = small_spec(kind, "gnp-sparse");
        seq.executor = ExecutorConfig::sequential();
        let mut thr = small_spec(kind, "gnp-sparse");
        thr.executor = ExecutorConfig::with_threads(2);
        let a = canonical_json(run(&seq).unwrap());
        let b = canonical_json(run(&thr).unwrap());
        assert_eq!(a, b, "{kind} diverged across executors");
    }
    // At n = 4096 the MIS kinds' local stage spans four chunks; the
    // default `8n`-word budget keeps greedy-MIS from gathering before it.
    for kind in [
        AlgorithmKind::GreedyMis,
        AlgorithmKind::CliqueMis,
        AlgorithmKind::LocalMis,
    ] {
        let mut seq = small_spec(kind, "gnp-sparse");
        seq.n = Some(4096);
        seq.overrides.space_factor = None;
        seq.executor = ExecutorConfig::sequential();
        let mut thr = seq.clone();
        thr.executor = ExecutorConfig::with_threads(2);
        let a = canonical_json(run(&seq).unwrap());
        let b = canonical_json(run(&thr).unwrap());
        assert_eq!(a, b, "{kind} diverged across executors at n = 4096");
    }
    // The kinds that lend the spec's executor to a nested stage, where
    // that stage's scans span two chunks.
    for kind in [
        AlgorithmKind::OnePlusEpsMatching,
        AlgorithmKind::WeightedMatching,
    ] {
        let mut seq = small_spec(kind, "gnp-sparse");
        seq.n = Some(2048);
        seq.overrides.space_factor = None;
        seq.executor = ExecutorConfig::sequential();
        let mut thr = seq.clone();
        thr.executor = ExecutorConfig::with_threads(2);
        let a = canonical_json(run(&seq).unwrap());
        let b = canonical_json(run(&thr).unwrap());
        assert_eq!(a, b, "{kind} diverged across executors at n = 2048");
    }
}

#[test]
fn run_on_matches_run_for_registry_graphs() {
    let spec = small_spec(AlgorithmKind::LubyMis, "power-law");
    let g = build_scenario(&spec).unwrap();
    let via_run = canonical_json(run(&spec).unwrap());
    let via_run_on = canonical_json(run_on(&g, "power-law", &spec).unwrap());
    assert_eq!(via_run, via_run_on);
}

#[test]
fn budget_violation_fails_the_run_but_keeps_the_report() {
    let mut spec = small_spec(AlgorithmKind::GreedyMis, "gnp-sparse");
    spec.budget.max_rounds = Some(0);
    let report = run(&spec).unwrap();
    assert!(!report.ok());
    assert!(report.witnesses_valid(), "witness itself is still fine");
    assert_eq!(report.budget_violations.len(), 1);
    assert!(report.budget_violations[0].contains("exceed budget 0"));
}

#[test]
fn max_n_admission_cap_refuses_scale_specs() {
    // The cap refuses *before* building: a scale scenario's default size
    // trips it even when the spec itself names no `n`.
    let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "scale-gnp-1m");
    spec.budget.max_n = Some(1 << 17);
    let err = run(&spec).unwrap_err().to_string();
    assert!(err.contains("admission cap"), "got: {err}");
    assert!(err.contains("1048576"), "names the offending size: {err}");

    // Overriding n below the cap admits the same scenario.
    spec.n = Some(4096);
    spec.overrides.space_factor = Some(32.0);
    assert!(run(&spec).unwrap().ok());

    // The backstop also guards caller-supplied graphs (the file path).
    let g = build_scenario(&small_spec(AlgorithmKind::GreedyMis, "gnp-sparse")).unwrap();
    let mut capped = small_spec(AlgorithmKind::GreedyMis, "gnp-sparse");
    capped.budget.max_n = Some(10);
    let err = run_on(&g, "gnp-sparse", &capped).unwrap_err().to_string();
    assert!(err.contains("admission cap"), "got: {err}");
}

#[test]
fn scale_scenario_runs_through_the_driver_at_small_n() {
    // Scale-tier names are full registry citizens of the run driver.
    let report = run(&small_spec(AlgorithmKind::GreedyMis, "scale-gnp-1m")).unwrap();
    assert!(report.ok());
    assert_eq!(report.n, 96);
}

#[test]
fn unknown_scenario_is_a_clean_error() {
    let spec = RunSpec::new(AlgorithmKind::GreedyMis, "never-registered");
    let err = run(&spec).unwrap_err().to_string();
    assert!(err.contains("unknown scenario"), "got: {err}");
}

#[test]
fn graph_file_specs_run_through_the_driver() {
    // `--graph-file` workloads share the run(spec) entry point with the
    // registry scenarios: same validation, same deterministic JSON.
    let path = std::env::temp_dir().join("mmvc_run_driver_graph_file.txt");
    let path_str = path.to_str().unwrap();
    let g = build_scenario(&small_spec(AlgorithmKind::GreedyMis, "gnp-sparse")).unwrap();
    let mut buf = Vec::new();
    mmvc::graph::io::write_edge_list(&g, &mut buf).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let mut spec = RunSpec::from_file(AlgorithmKind::GreedyMis, path_str);
    spec.seed = 7;
    let a = canonical_json(run(&spec).unwrap());
    let b = canonical_json(run(&spec).unwrap());
    assert_eq!(a, b, "file workloads must be byte-deterministic too");
    assert!(a.contains(&format!("\"scenario\": \"file:{path_str}\"")));

    // Byte-identical to running the same graph via run_on.
    let direct = canonical_json(run_on(&g, &format!("file:{path_str}"), &spec).unwrap());
    assert_eq!(a, direct);
    std::fs::remove_file(&path).ok();
}

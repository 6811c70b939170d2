//! Integration tests for the telemetry subsystem's out-of-band
//! contract: attaching a recording sink — to any executor shape — must
//! never change a canonical report byte, a cache key, or a scenario
//! seeding pin (span timestamps follow the same rule as `wall_ms`), and
//! the Chrome-trace exporter must emit well-formed, properly nested
//! span documents.

use mmvc::core::json::Json;
use mmvc::core::run::{run, AlgorithmKind, RunReport, RunSpec};
use mmvc::core::tracefmt;
use mmvc::graph::scenarios;
use mmvc::serve::{cache_key, canonical_report_body};
use mmvc::substrate::{EventKind, ExecutorConfig, Telemetry};

fn small_spec(kind: AlgorithmKind, scenario: &str) -> RunSpec {
    let mut spec = RunSpec::new(kind, scenario);
    spec.n = Some(96);
    spec.seed = 7;
    // Same allowance as run_driver.rs: at n ~ 100 the dense stress
    // scenarios brush the `O(n)`-words budget these tests do not probe.
    spec.overrides.space_factor = Some(32.0);
    spec
}

fn canonical_json(report: RunReport) -> String {
    String::from_utf8(canonical_report_body(report)).expect("reports render as UTF-8")
}

/// The tentpole pin: for every algorithm kind × a scenario cross
/// section, the canonical report bytes and the serve-layer cache key
/// are byte-identical with telemetry off, telemetry recording, and
/// across `Sequential`/`Threaded{2,4}` with telemetry recording.
#[test]
fn reports_and_cache_keys_are_telemetry_invariant() {
    let scenarios = ["gnp-sparse", "power-law", "planted-matching"];
    for kind in AlgorithmKind::ALL {
        for scenario in scenarios {
            let base = small_spec(kind, scenario);
            let baseline = canonical_json(run(&base).unwrap());
            let baseline_key = cache_key(&base, None);

            let executors = [
                ExecutorConfig::sequential(),
                ExecutorConfig::with_threads(2),
                ExecutorConfig::with_threads(4),
            ];
            for executor in executors {
                let telemetry = Telemetry::recording();
                let mut spec = small_spec(kind, scenario);
                spec.executor = executor.with_telemetry(&telemetry);
                assert_eq!(
                    cache_key(&spec, None),
                    baseline_key,
                    "{kind}/{scenario}: cache key must ignore telemetry and executor"
                );
                let traced = canonical_json(run(&spec).unwrap());
                assert_eq!(
                    traced, baseline,
                    "{kind}/{scenario}: canonical bytes must not depend on telemetry"
                );
                assert!(
                    !telemetry.drain().is_empty(),
                    "{kind}/{scenario}: the sink must actually have recorded"
                );
            }
        }
    }
}

/// Scenario seeding is untouched by a recording sink: every registered
/// scenario builds the same `(n, m)` graph with telemetry on and off.
#[test]
fn scenario_seeding_pins_survive_telemetry() {
    for sc in scenarios::all() {
        let plain = sc
            .build_with(128, 0xC0FFEE)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        let telemetry = Telemetry::recording();
        let exec = ExecutorConfig::sequential().with_telemetry(&telemetry);
        let traced = sc
            .build_with_exec(128, 0xC0FFEE, &exec)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        assert_eq!(plain.num_vertices(), traced.num_vertices(), "{}", sc.name);
        assert_eq!(plain.num_edges(), traced.num_edges(), "{}", sc.name);
        assert!(
            telemetry
                .drain()
                .iter()
                .any(|e| e.name == "scenario.generate"),
            "{}: generation must emit its span",
            sc.name
        );
    }
}

/// A traced run exports a well-formed Chrome Trace Event document with
/// the spans the acceptance criteria name (round, build) and sane
/// nesting: every span's parent, when present in the document, fully
/// contains it in time on the same thread.
#[test]
fn chrome_trace_export_is_well_formed_and_nested() {
    let telemetry = Telemetry::recording();
    let mut spec = small_spec(AlgorithmKind::GreedyMis, "gnp-sparse");
    spec.executor = ExecutorConfig::sequential().with_telemetry(&telemetry);
    run(&spec).unwrap();
    let events = telemetry.drain();

    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    assert!(names.contains(&"build"), "missing build span: {names:?}");
    assert!(names.contains(&"round"), "missing round span: {names:?}");
    assert!(names.contains(&"algorithm"), "{names:?}");

    // Spans nest: a child starts no earlier and ends no later than its
    // parent (same thread, parent recorded by the guard stack).
    let span_by_id = |id: u64| {
        events
            .iter()
            .find(|e| e.kind == EventKind::Span && e.id == id)
    };
    let mut checked = 0;
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        if e.parent == 0 {
            continue;
        }
        let Some(parent) = span_by_id(e.parent) else {
            continue;
        };
        assert_eq!(parent.tid, e.tid, "span {} nests across threads", e.name);
        assert!(
            parent.start_ns <= e.start_ns
                && e.start_ns + e.dur_ns <= parent.start_ns + parent.dur_ns,
            "span {} not contained in its parent {}",
            e.name,
            parent.name
        );
        checked += 1;
    }
    assert!(checked > 0, "at least one nested span must exist");

    // The exported document parses back and keeps the trace shape.
    let doc = tracefmt::chrome_trace(&events);
    let parsed = Json::parse(&doc.render()).expect("exporter emits valid JSON");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(trace_events.len(), events.len());
    for e in trace_events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        assert!(ph == "X" || ph == "C", "unexpected phase {ph}");
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }
}

/// The disabled handle records nothing and costs nothing to clone or
/// query — the default path every non-traced run takes.
#[test]
fn disabled_telemetry_is_inert() {
    let telemetry = Telemetry::disabled();
    assert!(!telemetry.is_enabled());
    telemetry.counter("never", 1);
    {
        let _span = telemetry.span("never");
    }
    assert!(!telemetry.has_events());
    assert!(telemetry.drain().is_empty());

    let mut spec = small_spec(AlgorithmKind::MpcMatching, "gnp-sparse");
    spec.executor = ExecutorConfig::sequential().with_telemetry(&telemetry);
    run(&spec).unwrap();
    assert!(!telemetry.has_events(), "disabled sinks never buffer");
}

/// A recording sink can be muted and re-enabled in place; only the
/// enabled stretches record.
#[test]
fn set_enabled_gates_recording_in_place() {
    let telemetry = Telemetry::recording();
    telemetry.set_enabled(false);
    telemetry.counter("muted", 1);
    assert!(!telemetry.has_events());
    telemetry.set_enabled(true);
    telemetry.counter("live", 1);
    let events = telemetry.drain();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "live");
}

/// Every round a metered kind records emits exactly one `round` span,
/// including the rounds the clique charges as a block (Lenzen routing,
/// all-to-all, neighbor notification).
#[test]
fn round_spans_match_reported_rounds() {
    for kind in [
        AlgorithmKind::GreedyMis,
        AlgorithmKind::CliqueMis,
        AlgorithmKind::MpcMatching,
        AlgorithmKind::Filtering,
    ] {
        let telemetry = Telemetry::recording();
        let mut spec = small_spec(kind, "gnp-sparse");
        spec.executor = ExecutorConfig::sequential().with_telemetry(&telemetry);
        let report = run(&spec).unwrap();
        let spans = telemetry
            .drain()
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == "round")
            .count();
        assert!(report.substrate.rounds > 0, "{kind}: no rounds metered");
        assert_eq!(spans, report.substrate.rounds, "{kind}");
    }
}

/// The MIS stages that charge no round span of their own — the
/// permutation draw, the sparsified local stage and the final gather —
/// each emit exactly one span directly under `algorithm`, at a size
/// where the local stage spans several chunks, and tracing them moves no
/// canonical byte.
#[test]
fn mis_stage_spans_nest_under_algorithm() {
    for kind in [AlgorithmKind::GreedyMis, AlgorithmKind::CliqueMis] {
        let mut spec = small_spec(kind, "gnp-sparse");
        spec.n = Some(4096);
        // The default `8n`-word budget, so greedy-MIS gathers only once
        // the local stage has run.
        spec.overrides.space_factor = None;
        let untraced = run(&spec).unwrap();
        let telemetry = Telemetry::recording();
        spec.executor = spec.executor.with_telemetry(&telemetry);
        let traced = run(&spec).unwrap();
        let local_rounds = traced.metric_f64("local_rounds").expect("emitted") as u64;
        assert_eq!(
            canonical_json(traced),
            canonical_json(untraced),
            "{kind}: canonical bytes must not depend on telemetry"
        );

        let events = telemetry.drain();
        let spans = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.name == name)
                .collect::<Vec<_>>()
        };
        let algorithm = spans("algorithm");
        assert_eq!(algorithm.len(), 1, "{kind}");
        for name in ["mis.permutation", "mis.local", "mis.gather"] {
            let stage = spans(name);
            assert_eq!(stage.len(), 1, "{kind}: one {name} span");
            assert_eq!(stage[0].parent, algorithm[0].id, "{kind}: {name} parent");
        }
        let arg = |name: &str, key: &str| {
            spans(name)[0]
                .args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{kind}: {name} lacks arg {key}"))
        };
        assert_eq!(arg("mis.local", "rounds"), local_rounds, "{kind}");
        assert!(local_rounds >= 1, "{kind}: the local stage must run");
        arg("mis.local", "residual_edges");
        assert!(arg("mis.gather", "remaining") <= 4096, "{kind}");
        arg("mis.gather", "words");
    }
}

/// Each witness is checked exactly once, under one `validate` span
/// tagged with its kind and nested directly under `algorithm`, and
/// tracing the check moves no canonical byte.
#[test]
fn each_witness_is_validated_once_under_algorithm() {
    for (kind, witnesses) in [
        (AlgorithmKind::GreedyMis, &["mis"][..]),
        (AlgorithmKind::OnePlusEpsMatching, &["matching"]),
        (AlgorithmKind::VertexCover, &["cover"]),
        (AlgorithmKind::IntegralMatching, &["matching", "cover"]),
    ] {
        let mut spec = small_spec(kind, "gnp-sparse");
        spec.n = Some(4096);
        spec.overrides.space_factor = None;
        let untraced = run(&spec).unwrap();
        let telemetry = Telemetry::recording();
        spec.executor = spec.executor.with_telemetry(&telemetry);
        let traced = run(&spec).unwrap();
        let kinds: Vec<&str> = traced.witnesses.iter().map(|w| w.kind).collect();
        assert_eq!(kinds, witnesses, "{kind}");
        assert!(traced.witnesses_valid(), "{kind}");
        assert_eq!(
            canonical_json(traced),
            canonical_json(untraced),
            "{kind}: canonical bytes must not depend on telemetry"
        );

        let events = telemetry.drain();
        let spans = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.name == name)
                .collect::<Vec<_>>()
        };
        let algorithm = spans("algorithm");
        assert_eq!(algorithm.len(), 1, "{kind}");
        let validate = spans("validate");
        let tags: Vec<&str> = validate.iter().filter_map(|e| e.tag.as_deref()).collect();
        assert_eq!(tags, witnesses, "{kind}: one validate span per witness");
        for span in validate {
            assert_eq!(span.parent, algorithm[0].id, "{kind}: validate parent");
            assert_eq!(span.args, vec![("valid", 1)], "{kind}");
        }
    }
}

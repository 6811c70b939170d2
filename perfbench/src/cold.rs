//! `cold-run`: the `mmvc run` path as a closed loop with one caller.
//!
//! Three fixed specs run in rotation, each from spec to canonical
//! report bytes through `mmvc_core::run::run` and
//! `mmvc_serve::canonical_report_body`. The specs are sized so that a
//! different layer dominates each: CSR build and scans for `mis`,
//! Θ(n²) Chung–Lu generation for `matching`, per-round cost for
//! `cover`.
//!
//! The traced run interleaves each untraced spec run with the same spec
//! taken apart layer by layer: scenario generation, a `GraphBuilder`
//! rebuild of the same edges, `run_detailed`, the public witness
//! validators, and rendering, each under a benchmark span.

use crate::output::{Metric, Outcome, COLD_SPECS};
use crate::stats::{self, median};
use crate::trace::{self, Spans};
use crate::Ctx;
use mmvc_core::run::{run, run_detailed, AlgorithmKind, RunArtifacts, RunSpec};
use mmvc_graph::{scenarios, Graph, GraphBuilder};
use mmvc_serve::canonical_report_body;
use mmvc_substrate::{ExecutorConfig, ScratchPool, Telemetry};
use std::time::Instant;

/// `(algorithm, scenario, n)` per entry of [`COLD_SPECS`].
const SPECS: [(AlgorithmKind, &str, usize); 3] = [
    (AlgorithmKind::GreedyMis, "scale-gnp-1m", 1 << 20),
    (AlgorithmKind::OnePlusEpsMatching, "power-law", 1 << 14),
    (AlgorithmKind::VertexCover, "geometric", 1 << 15),
];

const MIB: f64 = (1u64 << 20) as f64;

/// Size of the set-up pass: every spec once at this `n`.
const SETUP_N: usize = 1 << 12;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

fn spec(i: usize, n: usize, seed: u64, exec: ExecutorConfig) -> RunSpec {
    let (algorithm, scenario, _) = SPECS[i];
    let mut spec = RunSpec::new(algorithm, scenario);
    spec.n = Some(n);
    spec.seed = seed;
    spec.executor = exec;
    spec
}

/// One spec from spec to canonical bytes: `(report ok, bytes)`.
fn cold(spec: &RunSpec) -> Result<(bool, Vec<u8>), String> {
    let report = run(spec).map_err(|e| format!("{}: {e}", spec.algorithm))?;
    Ok((report.ok(), canonical_report_body(report)))
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exec = ExecutorConfig::with_threads(ctx.threads);

    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        for i in 0..SPECS.len() {
            let (ok, _) = cold(&spec(i, SETUP_N, ctx.seed, exec.clone()))?;
            out.op(ok);
        }
        setup.push(start.elapsed().as_secs_f64());
    }

    let tel = if ctx.traced {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    };
    let mut reference: [Option<Vec<u8>>; 3] = Default::default();
    let mut per_spec: [Vec<f64>; 3] = Default::default();
    let mut rotations = Vec::new();
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline {
        let mut rotation = 0.0;
        for (i, label) in COLD_SPECS.into_iter().enumerate() {
            let start = Instant::now();
            let (ok, bytes) = cold(&spec(i, SPECS[i].2, ctx.seed, exec.clone()))?;
            let elapsed = start.elapsed();
            let reference = reference[i].get_or_insert_with(|| bytes.clone());
            out.op(ok && *reference == bytes);
            per_spec[i].push(elapsed.as_secs_f64() * 1e3);
            rotation += elapsed.as_secs_f64() * 1e3;
            if ctx.traced {
                tel.record_span(
                    "bench.untraced",
                    Some(label),
                    start,
                    &[("dur_ns", elapsed.as_nanos() as u64)],
                );
                out.op(layered(i, ctx, &tel, reference)?);
            }
        }
        rotations.push(rotation);
        if rotations.len() == 1 {
            out.metrics.extend(crate::peak_rss());
        }
    }

    if ctx.traced {
        let path = trace::path_for("cold-run");
        trace::write(&path, &tel.drain(), None).map_err(|e| e.to_string())?;
        layer_metrics(&mut out, &Spans::load(&path).map_err(|e| e.to_string())?);
    } else {
        let runs: usize = per_spec.iter().map(Vec::len).sum();
        let total_s: f64 = rotations.iter().sum::<f64>() / 1e3;
        out.push(Metric::timing("p50_ms", "ms", stats::mid(&rotations)));
        out.push(Metric::timing("tail_ms", "ms", stats::tail(&rotations)));
        out.push(Metric::value(
            "throughput_per_s",
            "1/s",
            runs as f64 / total_s,
            runs,
        ));
        for (label, xs) in COLD_SPECS.iter().zip(&per_spec) {
            out.push(Metric::timing(format!("{label}_ms"), "ms", stats::mid(xs)));
        }
    }
    out.push(Metric::timing("setup_s", "s", stats::mid(&setup)));
    Ok(out)
}

/// The public witness validators on a run's artifacts: maximality for
/// an MIS, membership and maximality for a matching, coverage for a
/// cover.
fn validate(g: &Graph, artifacts: &RunArtifacts) -> bool {
    match artifacts {
        RunArtifacts::GreedyMis(o) => o.mis.is_maximal(g),
        RunArtifacts::OnePlusEps(o) => {
            o.matching.edges().iter().all(|e| g.has_edge(e.u(), e.v())) && o.matching.is_maximal(g)
        }
        RunArtifacts::VertexCover(o) => o.cover.covers(g),
        _ => false,
    }
}

/// Spec `i` layer by layer under benchmark spans; true when every
/// output checks out and the bytes equal the untraced run's.
fn layered(i: usize, ctx: &Ctx, tel: &Telemetry, reference: &[u8]) -> Result<bool, String> {
    let label = COLD_SPECS[i];
    let (_, scenario, n) = SPECS[i];
    let pool = ScratchPool::new();
    let exec = ExecutorConfig::with_threads(ctx.threads)
        .with_telemetry(tel)
        .with_scratch(&pool);
    let sc = scenarios::get(scenario).ok_or_else(|| format!("no scenario {scenario}"))?;
    let g = {
        let _span = tel.span_tagged("bench.gen", label);
        sc.build_with_exec(n, ctx.seed, &exec)
            .map_err(|e| e.to_string())?
    };

    // The same edges through the CSR builder alone, on an executor
    // without the run's arena so the rebuild leaves it untouched.
    let rebuild_exec = ExecutorConfig::with_threads(ctx.threads).with_telemetry(tel);
    let mut builder =
        GraphBuilder::with_capacity_in(g.num_vertices(), g.num_edges(), &rebuild_exec);
    builder
        .extend_edges(g.edges().iter())
        .map_err(|e| e.to_string())?;
    let rebuilt = {
        let _span = tel
            .span_tagged("bench.csr_build", label)
            .with_arg("memory_bytes", g.memory_bytes() as u64);
        builder.build_with(&rebuild_exec)
    };
    let same_graph = rebuilt == g;
    drop(rebuilt);

    let spec = spec(i, n, ctx.seed, exec);
    let (report, artifacts) = {
        let mut span = tel.span_tagged("bench.algo", label);
        let (report, artifacts) =
            run_detailed(&g, scenario, &spec).map_err(|e| format!("{label}: {e}"))?;
        span.arg("rounds", report.substrate.rounds as u64);
        span.arg("total_words", report.substrate.total_words as u64);
        span.arg("max_load_words", report.substrate.max_load_words as u64);
        // The arena is fresh per spec run, as in `run`: generation, CSR
        // build and every round draw from it.
        span.arg("scratch_alloc_bytes", pool.stats().allocated_bytes);
        (report, artifacts)
    };
    let valid = {
        let _span = tel.span_tagged("bench.validate", label);
        validate(&g, &artifacts)
    };
    let ok = report.ok();
    let bytes = {
        let mut span = tel.span_tagged("bench.render", label);
        let bytes = canonical_report_body(report);
        span.arg("bytes", bytes.len() as u64);
        bytes
    };
    Ok(same_graph && valid && ok && bytes == reference)
}

fn layer_metrics(out: &mut Outcome, spans: &Spans) {
    let mut traced_rot = vec![0.0; spans.get("bench.gen", COLD_SPECS[0]).len()];
    let mut untraced_rot = vec![0.0; traced_rot.len()];
    for label in COLD_SPECS {
        let gen = spans.ms("bench.gen", label);
        let csr = spans.ms("bench.csr_build", label);
        let algo = spans.ms("bench.algo", label);
        let render = spans.ms("bench.render", label);
        let untraced: Vec<f64> = spans
            .args("bench.untraced", label, "dur_ns")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        for r in 0..traced_rot.len().min(algo.len()).min(render.len()) {
            traced_rot[r] += gen[r] + algo[r] + render[r];
            untraced_rot[r] += untraced.get(r).copied().unwrap_or(0.0);
        }
        let gen_only: Vec<f64> = gen.iter().zip(&csr).map(|(g, c)| g - c).collect();
        let validate = spans.ms("bench.validate", label);
        for (metric, xs) in [
            ("graph.gen_ms", &gen_only),
            ("graph.csr_build_ms", &csr),
            ("core.algo_ms", &algo),
            ("core.validate_ms", &validate),
            ("bench.render_ms", &render),
        ] {
            out.push(Metric::timing(
                format!("{metric}.{label}"),
                "ms",
                stats::mid(xs),
            ));
        }
        for (metric, unit, span, key, scale) in [
            (
                "graph.memory_mib",
                "MiB",
                "bench.csr_build",
                "memory_bytes",
                MIB,
            ),
            ("bench.render_bytes", "bytes", "bench.render", "bytes", 1.0),
            ("substrate.rounds", "count", "bench.algo", "rounds", 1.0),
            (
                "substrate.total_words",
                "words",
                "bench.algo",
                "total_words",
                1.0,
            ),
            (
                "substrate.max_load_words",
                "words",
                "bench.algo",
                "max_load_words",
                1.0,
            ),
            (
                "substrate.scratch_alloc_bytes",
                "bytes",
                "bench.algo",
                "scratch_alloc_bytes",
                1.0,
            ),
        ] {
            let xs = spans.args(span, label, key);
            out.push(Metric::value(
                format!("{metric}.{label}"),
                unit,
                median(&xs) / scale,
                xs.len(),
            ));
        }
        out.push(Metric::timing(
            format!("{label}_ms"),
            "ms",
            stats::mid(&untraced),
        ));
    }
    crate::push_overhead(out, &traced_rot, &untraced_rot);
}

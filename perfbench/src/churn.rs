//! `session-churn`: a resident session updated and re-run
//! incrementally, closed loop with one caller.
//!
//! Set-up opens `Session::new` on greedy MIS over `scale-gnp-1m` and
//! runs it cold. Each cycle then applies a seeded delta of 0.1% of the
//! edges — alternately deleting a present edge and inserting a fresh
//! pair — and re-runs incrementally. The traced run alternates traced
//! and untraced cycles, and finally compares the merged graph with a
//! from-scratch `GraphBuilder` build of the edge set the deltas imply.

use crate::output::{Metric, Outcome};
use crate::stats::{self, median};
use crate::trace::{self, Spans};
use crate::Ctx;
use mmvc_core::run::{AlgorithmKind, MetricValue, RunSpec};
use mmvc_core::session::Session;
use mmvc_graph::rng::SplitMix64;
use mmvc_graph::{scenarios, Graph, GraphBuilder, GraphDelta, VertexId};
use mmvc_substrate::{ExecutorConfig, ScratchPool, Telemetry};
use std::collections::HashSet;
use std::time::Instant;

const SCENARIO: &str = "scale-gnp-1m";
const N: usize = 1 << 20;

/// Share of the current edges touched by one cycle's delta.
const CHURN: f64 = 0.001;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// Seed salt separating the delta stream from the workload's graph.
const DELTA_SALT: u64 = 0x0043_4855_524E; // "CHURN"

fn pack(u: VertexId, v: VertexId) -> u64 {
    (u64::from(u.min(v)) << 32) | u64::from(u.max(v))
}

/// One cycle's delta: `ops` alternating deletions of present edges and
/// insertions of absent pairs, no pair twice. Returns the delta with
/// its deleted and inserted pairs.
fn churn_delta(
    g: &Graph,
    rng: &mut SplitMix64,
) -> Result<(GraphDelta, Vec<u64>, Vec<u64>), String> {
    let m = g.num_edges() as u64;
    let n = g.num_vertices() as u64;
    let ops = ((m as f64 * CHURN).round() as usize).max(2);
    let edges = g.edges();
    let mut chosen = HashSet::with_capacity(ops);
    let (mut delta, mut deleted, mut inserted) = (GraphDelta::new(), Vec::new(), Vec::new());
    for i in 0..ops {
        loop {
            if i % 2 == 0 {
                let e = edges.get(rng.next_below(m) as usize);
                if chosen.insert(pack(e.u(), e.v())) {
                    delta.delete_edge(e.u(), e.v()).map_err(|e| e.to_string())?;
                    deleted.push(pack(e.u(), e.v()));
                    break;
                }
            } else {
                let (a, b) = (rng.next_below(n) as VertexId, rng.next_below(n) as VertexId);
                if a != b && !g.has_edge(a, b) && chosen.insert(pack(a, b)) {
                    delta.insert_edge(a, b).map_err(|e| e.to_string())?;
                    inserted.push(pack(a, b));
                    break;
                }
            }
        }
    }
    Ok((delta, deleted, inserted))
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tel = if ctx.traced {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    };
    let pool = ScratchPool::new();
    let exec = ExecutorConfig::with_threads(ctx.threads)
        .with_telemetry(&tel)
        .with_scratch(&pool);
    if ctx.traced {
        out.op(setup_layers(ctx, &tel)?);
    }
    let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, SCENARIO);
    spec.n = Some(N);
    spec.seed = ctx.seed;
    spec.executor = exec;

    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let start = Instant::now();
        let mut s = Session::new(&spec).map_err(|e| e.to_string())?;
        let cold = s.run_cold().map_err(|e| e.to_string())?;
        setup.push(start.elapsed().as_secs_f64());
        out.op(cold.ok());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    // The traced run tracks the edge set the deltas imply, to compare
    // with the merged graph at the end.
    let mut expected: Option<HashSet<u64>> = ctx.traced.then(|| {
        session
            .graph()
            .edges()
            .iter()
            .map(|e| pack(e.u(), e.v()))
            .collect()
    });

    let mut rng = SplitMix64::new(ctx.seed ^ DELTA_SALT);
    let mut cycles = Vec::new();
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline {
        let (delta, deleted, inserted) = churn_delta(session.graph(), &mut rng)?;
        let traced_cycle = ctx.traced && cycles.len() % 2 == 0;
        tel.set_enabled(traced_cycle);
        let alloc_before = pool.stats().allocated_bytes;
        let start = Instant::now();
        let mut cycle_span = tel.span("bench.cycle");
        let update = {
            let _span = tel.span("bench.apply_update");
            session.apply_update(&delta).map_err(|e| e.to_string())?
        };
        let report = {
            let _span = tel.span("bench.run_incremental");
            session.run_incremental().map_err(|e| e.to_string())?
        };
        let incremental = report.metric("incremental") == Some(&MetricValue::Flag(true));
        let args = [
            ("ops", (update.inserted + update.deleted) as u64),
            ("incremental", u64::from(incremental)),
            (
                "scratch_alloc_bytes",
                pool.stats().allocated_bytes - alloc_before,
            ),
        ];
        for (key, value) in args {
            cycle_span.arg(key, value);
        }
        drop(cycle_span);
        let elapsed = start.elapsed();
        cycles.push(elapsed.as_secs_f64() * 1e3);
        if cycles.len() == 1 {
            out.metrics.extend(crate::peak_rss());
        }
        if ctx.traced && !traced_cycle {
            tel.set_enabled(true);
            let mut untraced = args.to_vec();
            untraced.push(("dur_ns", elapsed.as_nanos() as u64));
            tel.record_span("bench.untraced_cycle", None, start, &untraced);
        }
        out.op(report.ok() && incremental);
        if let Some(set) = expected.as_mut() {
            for e in &deleted {
                set.remove(e);
            }
            set.extend(inserted);
        }
    }
    tel.set_enabled(true);

    if let Some(set) = expected {
        let mut builder = GraphBuilder::with_capacity(N, set.len());
        for p in set {
            builder
                .add_edge((p >> 32) as VertexId, p as VertexId)
                .map_err(|e| e.to_string())?;
        }
        out.op(builder.build_with(&ExecutorConfig::with_threads(ctx.threads)) == *session.graph());
    }

    if ctx.traced {
        let path = trace::path_for("session-churn");
        trace::write(&path, &tel.drain(), None).map_err(|e| e.to_string())?;
        layer_metrics(&mut out, &Spans::load(&path).map_err(|e| e.to_string())?);
    } else {
        let total_s: f64 = cycles.iter().sum::<f64>() / 1e3;
        out.push(Metric::timing("p50_ms", "ms", stats::mid(&cycles)));
        out.push(Metric::timing("tail_ms", "ms", stats::tail(&cycles)));
        out.push(Metric::value(
            "throughput_per_s",
            "1/s",
            cycles.len() as f64 / total_s,
            cycles.len(),
        ));
    }
    out.push(Metric::timing("setup_s", "s", stats::mid(&setup)));
    Ok(out)
}

/// The set-up graph's layers, measured once before the sessions open:
/// scenario generation and a `GraphBuilder` rebuild of its edges.
fn setup_layers(ctx: &Ctx, tel: &Telemetry) -> Result<bool, String> {
    let exec = ExecutorConfig::with_threads(ctx.threads).with_telemetry(tel);
    let sc = scenarios::get(SCENARIO).ok_or_else(|| format!("no scenario {SCENARIO}"))?;
    let g = {
        let _span = tel.span_tagged("bench.gen", "session");
        sc.build_with_exec(N, ctx.seed, &exec)
            .map_err(|e| e.to_string())?
    };
    let mut builder = GraphBuilder::with_capacity_in(g.num_vertices(), g.num_edges(), &exec);
    builder
        .extend_edges(g.edges().iter())
        .map_err(|e| e.to_string())?;
    let rebuilt = {
        let _span = tel
            .span_tagged("bench.csr_build", "session")
            .with_arg("memory_bytes", g.memory_bytes() as u64);
        builder.build_with(&exec)
    };
    Ok(rebuilt == g)
}

fn layer_metrics(out: &mut Outcome, spans: &Spans) {
    let apply = spans.ms("bench.apply_update", "");
    let incremental = spans.ms("bench.run_incremental", "");
    out.push(Metric::timing(
        "session.apply_update_p50_ms",
        "ms",
        stats::mid(&apply),
    ));
    out.push(Metric::timing(
        "session.apply_update_p90_ms",
        "ms",
        stats::at(&apply, 90.0),
    ));
    out.push(Metric::timing(
        "session.run_incremental_p50_ms",
        "ms",
        stats::mid(&incremental),
    ));
    out.push(Metric::timing(
        "session.run_incremental_p90_ms",
        "ms",
        stats::at(&incremental, 90.0),
    ));
    let all_cycles = |key: &str| {
        let mut xs = spans.args("bench.cycle", "", key);
        xs.extend(spans.args("bench.untraced_cycle", "", key));
        xs
    };
    let flags = all_cycles("incremental");
    let frac = flags.iter().sum::<f64>() / flags.len().max(1) as f64;
    out.push(Metric::value(
        "session.incremental_frac",
        "ratio",
        frac,
        flags.len(),
    ));
    let ops = all_cycles("ops");
    out.push(Metric::value(
        "graph.delta_ops",
        "count",
        median(&ops),
        ops.len(),
    ));
    // Bytes per cycle on average: a warm arena allocates nothing, so any
    // cycle that does shows up here.
    let alloc = all_cycles("scratch_alloc_bytes");
    out.push(Metric::value(
        "substrate.scratch_alloc_bytes_per_cycle",
        "bytes",
        alloc.iter().sum::<f64>() / alloc.len().max(1) as f64,
        alloc.len(),
    ));
    let gen = spans.ms("bench.gen", "session");
    let csr = spans.ms("bench.csr_build", "session");
    let gen_only: Vec<f64> = gen.iter().zip(&csr).map(|(g, c)| g - c).collect();
    out.push(Metric::timing(
        "graph.gen_ms.session",
        "ms",
        stats::mid(&gen_only),
    ));
    out.push(Metric::timing(
        "graph.csr_build_ms.session",
        "ms",
        stats::mid(&csr),
    ));
    let memory = spans.args("bench.csr_build", "session", "memory_bytes");
    out.push(Metric::value(
        "graph.memory_mib.session",
        "MiB",
        median(&memory) / (1u64 << 20) as f64,
        memory.len(),
    ));
    let untraced: Vec<f64> = spans
        .args("bench.untraced_cycle", "", "dur_ns")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    crate::push_overhead(out, &spans.ms("bench.cycle", ""), &untraced);
}

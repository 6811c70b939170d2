//! `bench_update` — the incremental-engine benchmark and its gate.
//!
//! For each measured workload the binary opens a [`Session`], times a
//! cold run, then applies a seeded **≤0.1% edge-churn** delta and times
//! the warm path (`apply_update` + `run_incremental`). Results go to
//! stdout as a table and to `BENCH_update.json`:
//!
//! ```text
//! cargo run --release -p mmvc-bench --bin bench_update -- [--smoke] [--out PATH]
//! ```
//!
//! The exit code is the PR's headline gate. It is nonzero unless, on
//! every measured row:
//!
//! * the delta-merge rebuild ([`Graph::apply_delta_with`]) is
//!   **byte-identical** to a from-scratch build of the mutated edge
//!   list, under `Sequential` and `Threaded{2,4}` alike;
//! * the incremental report passes the **same witness validation** a
//!   cold run does (and really ran incrementally — a silent cold
//!   fallback would invalidate the measurement);
//! * a follow-up generation survives [`Session::run_incremental_with`]'s
//!   `verify_cold` cross-check against a fresh cold run;
//!
//! and, on the headline `scale-gnp-1m` row, the warm re-run is at least
//! [`MIN_SPEEDUP`]× faster than the cold run. `--smoke` shrinks the
//! scale row to `n = 2^17` for CI; every gate still applies.

use mmvc_bench::Table;
use mmvc_core::json::Json;
use mmvc_core::run::{AlgorithmKind, MetricValue, RunSpec};
use mmvc_core::session::Session;
use mmvc_graph::rng::hash2;
use mmvc_graph::{Edge, Graph, GraphBuilder, GraphDelta, VertexId};
use mmvc_substrate::ExecutorConfig;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;

/// The smoke-mode size for the scale row (CI): large enough that the
/// chunked delta-merge path does real work, small enough for CI wall
/// times.
const SMOKE_N: usize = 1 << 17;

/// Seed for every measurement (workloads and churn are deterministic
/// in it).
const SEED: u64 = 0xD317A;

/// The headline gate: warm re-run after ≤0.1% churn on `scale-gnp-1m`
/// must beat the cold run by at least this factor.
const MIN_SPEEDUP: f64 = 5.0;

/// Churn size as a fraction of the edge count: 1 op per 1000 edges.
const CHURN_PER_MILLE: usize = 1000;

struct RowPlan {
    scenario: &'static str,
    algorithm: AlgorithmKind,
    n: usize,
    /// Whether the ≥[`MIN_SPEEDUP`]× gate applies to this row.
    gated: bool,
}

struct UpdateRow {
    scenario: &'static str,
    algorithm: &'static str,
    n: usize,
    edges: usize,
    churn_ops: usize,
    cold_ms: f64,
    update_ms: f64,
    incr_ms: f64,
    speedup: f64,
    byte_identical: bool,
    witness_ok: bool,
    incremental: bool,
    verify_cold_ok: bool,
    gated: bool,
}

impl UpdateRow {
    /// Warm path total: delta apply + incremental re-run.
    fn warm_ms(&self) -> f64 {
        self.update_ms + self.incr_ms
    }
}

fn pack(e: &Edge) -> u64 {
    ((e.u() as u64) << 32) | e.v() as u64
}

/// A seeded churn delta: alternating deletes of present edges and
/// inserts of fresh pairs, all chosen by stateless hashing so every
/// mode and executor sees the same batch.
fn churn_delta(g: &Graph, ops: usize, salt: u64) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut delta = GraphDelta::new();
    let mut staged = 0usize;
    let mut probe = 0u64;
    let budget = 64 * ops as u64 + 64;
    while staged < ops && probe < budget {
        let h = hash2(salt, probe);
        probe += 1;
        if staged.is_multiple_of(2) && g.num_edges() > 0 {
            // Delete: probe a vertex with neighbors, drop one incident
            // edge.
            let v = (h % n) as VertexId;
            let nbrs = g.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let w = nbrs[(h >> 32) as usize % nbrs.len()];
            delta
                .delete_edge(v, w)
                .expect("neighbors are not self-loops");
            staged += 1;
        } else {
            let a = (h % n) as VertexId;
            let b = ((h >> 32) % n) as VertexId;
            if a == b {
                continue;
            }
            delta.insert_edge(a, b).expect("a != b");
            staged += 1;
        }
    }
    delta
}

/// Byte-identity of the delta-merge against a from-scratch build of the
/// mutated edge list, across `Sequential` and `Threaded{2,4}`.
fn merge_is_byte_identical(g: &Graph, delta: &GraphDelta) -> Result<bool, String> {
    let (ins, del) = delta
        .normalized(g.num_vertices())
        .map_err(|e| format!("delta normalization failed: {e}"))?;
    let del_set: HashSet<u64> = del.iter().map(pack).collect();
    let mut edges: Vec<Edge> = g
        .edges()
        .iter()
        .filter(|e| !del_set.contains(&pack(e)))
        .collect();
    edges.extend(ins.iter().copied());
    let mut builder = GraphBuilder::with_capacity(g.num_vertices(), edges.len());
    builder
        .extend_edges(edges.iter().copied())
        .map_err(|e| format!("from-scratch build staged a bad edge: {e}"))?;
    let reference = builder.build();
    for (label, exec) in [
        ("seq", ExecutorConfig::sequential()),
        ("t2", ExecutorConfig::with_threads(2)),
        ("t4", ExecutorConfig::with_threads(4)),
    ] {
        let merged = g
            .apply_delta_with(delta, &exec)
            .map_err(|e| format!("apply_delta under {label} failed: {e}"))?;
        if merged != reference {
            eprintln!("delta-merge diverged from the from-scratch build under {label}");
            return Ok(false);
        }
    }
    Ok(true)
}

/// Runs one workload row end to end; `Err` aborts the whole bench.
fn run_row(plan: &RowPlan) -> Result<UpdateRow, String> {
    let mut spec = RunSpec::new(plan.algorithm, plan.scenario);
    spec.n = Some(plan.n);
    spec.seed = SEED;
    spec.executor = ExecutorConfig::with_threads(4);
    let mut session =
        Session::new(&spec).map_err(|e| format!("{}: session refused: {e}", plan.scenario))?;

    // Cold baseline: best of two, so the first-touch noise of a fresh
    // arena cannot inflate the speedup.
    let mut cold_ms = f64::INFINITY;
    let mut cold_ok = true;
    for _ in 0..2 {
        let start = Instant::now();
        let report = session
            .run_cold()
            .map_err(|e| format!("{}: cold run failed: {e}", plan.scenario))?;
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
        cold_ok &= report.ok();
    }
    if !cold_ok {
        return Err(format!(
            "{}: cold run failed its own witnesses",
            plan.scenario
        ));
    }

    let edges = session.graph().num_edges();
    let churn_ops = (edges / CHURN_PER_MILLE).max(4);
    let delta = churn_delta(session.graph(), churn_ops, SEED ^ 0x5A17);
    let byte_identical = merge_is_byte_identical(session.graph(), &delta)?;

    // The timed warm path: apply the batched delta, re-run from warm
    // witness state.
    let start = Instant::now();
    session
        .apply_update(&delta)
        .map_err(|e| format!("{}: update refused: {e}", plan.scenario))?;
    let update_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let warm = session
        .run_incremental()
        .map_err(|e| format!("{}: incremental run failed: {e}", plan.scenario))?;
    let incr_ms = start.elapsed().as_secs_f64() * 1e3;
    let witness_ok = warm.ok();
    let incremental = warm.metric("incremental") == Some(&MetricValue::Flag(true));

    // Cross-check generation (un-timed): another small delta, then the
    // `verify_cold` knob compares incremental witness validity against
    // a fresh cold run of the mutated graph.
    let check = churn_delta(session.graph(), churn_ops.clamp(2, 32), SEED ^ 0xC0DE);
    session
        .apply_update(&check)
        .map_err(|e| format!("{}: cross-check update refused: {e}", plan.scenario))?;
    let verify_cold_ok = match session.run_incremental_with(true) {
        Ok(report) => report.ok(),
        Err(e) => {
            eprintln!("{}: verify_cold cross-check failed: {e}", plan.scenario);
            false
        }
    };

    let row = UpdateRow {
        scenario: plan.scenario,
        algorithm: plan.algorithm.name(),
        n: session.graph().num_vertices(),
        edges,
        churn_ops,
        cold_ms,
        update_ms,
        incr_ms,
        speedup: cold_ms / (update_ms + incr_ms).max(1e-9),
        byte_identical,
        witness_ok,
        incremental,
        verify_cold_ok,
        gated: plan.gated,
    };
    eprintln!(
        "{:<16} {:<12} n={:<8} m={:<9} churn={:<6} cold={:.1}ms warm={:.1}ms ({:.1}+{:.1}) speedup={:.1}x",
        row.scenario,
        row.algorithm,
        row.n,
        row.edges,
        row.churn_ops,
        row.cold_ms,
        row.warm_ms(),
        row.update_ms,
        row.incr_ms,
        row.speedup
    );
    Ok(row)
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_update [--smoke] [--out PATH]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_update.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--out" => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    out_path = v.clone();
                    i += 2;
                }
                _ => {
                    eprintln!("error: --out requires a path value");
                    return usage();
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                return usage();
            }
        }
    }

    let plans = [
        RowPlan {
            scenario: "gnp-sparse",
            algorithm: AlgorithmKind::GreedyMis,
            n: 1 << 15,
            gated: false,
        },
        RowPlan {
            scenario: "gnp-sparse",
            algorithm: AlgorithmKind::OnePlusEpsMatching,
            n: 1 << 12,
            gated: false,
        },
        RowPlan {
            scenario: "scale-gnp-1m",
            algorithm: AlgorithmKind::GreedyMis,
            n: if smoke { SMOKE_N } else { 1 << 20 },
            gated: true,
        },
    ];

    let mut rows: Vec<UpdateRow> = Vec::new();
    let mut failed = false;
    for plan in &plans {
        match run_row(plan) {
            Ok(row) => rows.push(row),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for row in &rows {
        if !row.byte_identical {
            eprintln!(
                "{}/{}: delta-merge not byte-identical to the from-scratch build",
                row.scenario, row.algorithm
            );
            failed = true;
        }
        if !row.witness_ok {
            eprintln!(
                "{}/{}: incremental report failed witness validation",
                row.scenario, row.algorithm
            );
            failed = true;
        }
        if !row.incremental {
            eprintln!(
                "{}/{}: measured run fell back to cold — not an incremental measurement",
                row.scenario, row.algorithm
            );
            failed = true;
        }
        if !row.verify_cold_ok {
            eprintln!(
                "{}/{}: verify_cold cross-check failed",
                row.scenario, row.algorithm
            );
            failed = true;
        }
        if row.gated && row.speedup < MIN_SPEEDUP {
            eprintln!(
                "{}/{}: warm re-run is only {:.2}x faster than cold (gate: {MIN_SPEEDUP}x)",
                row.scenario, row.algorithm, row.speedup
            );
            failed = true;
        }
    }

    let mut table = Table::new(
        if smoke {
            "incremental re-runs after <=0.1% churn (smoke, scale row at n = 2^17)"
        } else {
            "incremental re-runs after <=0.1% churn"
        },
        &[
            "scenario",
            "algorithm",
            "n",
            "edges",
            "churn_ops",
            "cold_ms",
            "update_ms",
            "incr_ms",
            "speedup",
            "byte_identical",
            "witness_ok",
            "verify_cold_ok",
            "gated",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.scenario.to_string(),
            r.algorithm.to_string(),
            r.n.to_string(),
            r.edges.to_string(),
            r.churn_ops.to_string(),
            format!("{:.1}", r.cold_ms),
            format!("{:.2}", r.update_ms),
            format!("{:.2}", r.incr_ms),
            format!("{:.1}", r.speedup),
            r.byte_identical.to_string(),
            r.witness_ok.to_string(),
            r.verify_cold_ok.to_string(),
            r.gated.to_string(),
        ]);
    }
    table.print();

    let doc = Json::obj(vec![
        ("schema", Json::Str("mmvc-bench-update/v1".to_string())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("min_speedup", Json::Float(MIN_SPEEDUP)),
        (
            "host_parallelism",
            Json::Int(
                std::thread::available_parallelism()
                    .map(|p| p.get() as i64)
                    .unwrap_or(1),
            ),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scenario", Json::Str(r.scenario.to_string())),
                            ("algorithm", Json::Str(r.algorithm.to_string())),
                            ("n", Json::Int(r.n as i64)),
                            ("edges", Json::Int(r.edges as i64)),
                            ("churn_ops", Json::Int(r.churn_ops as i64)),
                            ("cold_ms", Json::Float(r.cold_ms)),
                            ("update_ms", Json::Float(r.update_ms)),
                            ("incr_ms", Json::Float(r.incr_ms)),
                            ("warm_ms", Json::Float(r.warm_ms())),
                            ("speedup", Json::Float(r.speedup)),
                            ("byte_identical", Json::Bool(r.byte_identical)),
                            ("witness_ok", Json::Bool(r.witness_ok)),
                            ("incremental", Json::Bool(r.incremental)),
                            ("verify_cold_ok", Json::Bool(r.verify_cold_ok)),
                            ("gated", Json::Bool(r.gated)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.render()) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path} ({} rows)", rows.len());

    if failed {
        eprintln!("error: incremental-engine gates failed (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

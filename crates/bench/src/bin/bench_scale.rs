//! `bench_scale` — the million-vertex scale-tier benchmark.
//!
//! For every `scale-*` scenario in the registry, measures graph
//! construction (generator + counting-sort CSR build) under `Sequential`,
//! `Threaded{2}`, and `Threaded{4}` executors, **verifies the three graphs
//! are byte-identical** (the determinism contract of the parallel
//! builder), then times one `greedy-mis` run on the built graph. Results
//! go to stdout as a table and to `BENCH_scale.json`:
//!
//! ```text
//! cargo run --release -p mmvc-bench --bin bench_scale -- [--smoke] [--out PATH]
//! ```
//!
//! All four builds of a scenario share one [`ScratchPool`], and the run
//! reports the arena's allocation counters: `arena_cold_*` is what the
//! first (cold) build allocated, `arena_warm_*` is what a fourth, warm
//! rebuild allocated after the pool was primed — the scratch-arena
//! contract is that the warm numbers are ~0 (every counting/bucket/mark
//! buffer is reused), which is what makes repeated builds and the
//! serving daemon allocation-free after warm-up.
//!
//! In full mode the run also asserts the Theorem 1.1 shape at the 2²⁴
//! tier: greedy-MIS rounds at `scale-gnp-16m` must stay within a small
//! additive slack of the 2²⁰–2²¹ baselines (`O(log log Δ)` is flat in
//! `n` at fixed average degree).
//!
//! `--smoke` shrinks every scenario to `n = 2^17` (`2^18` for the `-16m`
//! tier, so its rows still exercise the chunked u32-packed paths in CI).
//! *Any* failure — construction divergence across executors, a failed
//! witness, a warm build that allocates like a cold one — exits nonzero
//! in both modes: a determinism break at scale is a bug, never a finding
//! to record.

use mmvc_bench::Table;
use mmvc_core::json::Json;
use mmvc_core::run::{run_on, AlgorithmKind, RunSpec};
use mmvc_graph::scenarios;
use mmvc_graph::Graph;
use mmvc_substrate::{ExecutorConfig, ScratchPool};
use std::process::ExitCode;
use std::time::Instant;

/// The smoke-mode size override (CI): big enough to exercise every
/// chunked code path, small enough for debug-friendly wall times.
const SMOKE_N: usize = 1 << 17;

/// Seed for every scale measurement (the tier is deterministic in it).
const SEED: u64 = 0x5CA1E;

/// Additive slack for the flat-rounds assertion: greedy-MIS substrate
/// rounds at the 2²⁴ tier may exceed the 2²⁰–2²¹ baseline by at most
/// this much (the sparsified stage's round cap grows with `log log n`).
const FLAT_ROUNDS_SLACK: usize = 3;

struct ScaleRow {
    scenario: &'static str,
    n: usize,
    edges: usize,
    max_degree: usize,
    build_ms_seq: f64,
    build_ms_t2: f64,
    build_ms_t4: f64,
    build_ms_warm: f64,
    speedup_t4: f64,
    byte_identical: bool,
    graph_mib: f64,
    arena_cold_allocs: u64,
    arena_cold_bytes: u64,
    arena_warm_allocs: u64,
    arena_warm_bytes: u64,
    arena_warm_reuses: u64,
    arena_warm_reused_bytes: u64,
    algorithm: &'static str,
    algo_wall_ms: f64,
    algo_rounds: usize,
    algo_ok: bool,
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_scale [--smoke] [--out PATH]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_scale.json".to_string();
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

    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut failed = false;

    for sc in scenarios::scale_tier() {
        let n = if smoke {
            // The 16M tier keeps a larger smoke size so CI still drives
            // the multi-chunk u32-packed paths it exists to cover.
            if sc.name.ends_with("-16m") {
                SMOKE_N * 2
            } else {
                SMOKE_N
            }
        } else {
            sc.default_n
        };
        // All builds of this scenario share one arena: the first build is
        // the cold measurement, the later ones run against a primed pool.
        let pool = ScratchPool::new();
        let executors = [
            ("seq", ExecutorConfig::sequential().with_scratch(&pool)),
            ("t2", ExecutorConfig::with_threads(2).with_scratch(&pool)),
            ("t4", ExecutorConfig::with_threads(4).with_scratch(&pool)),
        ];
        // Build under each executor; keep the sequential graph as the
        // reference, compare the others byte-for-byte (CSR arrays).
        let mut reference: Option<Graph> = None;
        let mut build_ms = [0.0f64; 3];
        let mut byte_identical = true;
        let mut cold = (0u64, 0u64);
        for (slot, (label, exec)) in executors.iter().enumerate() {
            let start = Instant::now();
            let g = match sc.build_with_exec(n, SEED, exec) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("{}: build failed under {label}: {e}", sc.name);
                    return ExitCode::FAILURE;
                }
            };
            build_ms[slot] = start.elapsed().as_secs_f64() * 1e3;
            if slot == 0 {
                let s = pool.stats();
                cold = (s.allocations, s.allocated_bytes);
            }
            match &reference {
                None => reference = Some(g),
                Some(r) => {
                    if g != *r {
                        eprintln!(
                            "{}: graph diverged under {label} — determinism break",
                            sc.name
                        );
                        byte_identical = false;
                        failed = true;
                    }
                }
            }
        }
        // Warm rebuild against the primed arena: the allocation counters
        // of this build are the scratch-pool headline (~0 fresh bytes).
        pool.reset_stats();
        let start = Instant::now();
        let warm_graph = sc
            .build_with_exec(n, SEED, &executors[0].1)
            .expect("warm rebuild of a graph that just built");
        let build_ms_warm = start.elapsed().as_secs_f64() * 1e3;
        let warm = pool.stats();
        let g = reference.expect("sequential build recorded");
        if warm_graph != g {
            eprintln!("{}: warm rebuild diverged — determinism break", sc.name);
            byte_identical = false;
            failed = true;
        }
        drop(warm_graph);

        // One algorithm pass on the built graph: the headline MIS kind,
        // on the widest executor measured above (sharing the arena).
        let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, sc.name);
        spec.seed = SEED;
        spec.executor = ExecutorConfig::with_threads(4).with_scratch(&pool);
        let (algo_wall_ms, algo_rounds, algo_ok) = match run_on(&g, sc.name, &spec) {
            Ok(report) => (report.wall_ms, report.substrate.rounds, report.ok()),
            Err(e) => {
                eprintln!("{}: greedy-mis failed: {e}", sc.name);
                (f64::NAN, 0, false)
            }
        };
        if !algo_ok {
            failed = true;
        }

        let row = ScaleRow {
            scenario: sc.name,
            n: g.num_vertices(),
            edges: g.num_edges(),
            max_degree: g.max_degree(),
            build_ms_seq: build_ms[0],
            build_ms_t2: build_ms[1],
            build_ms_t4: build_ms[2],
            build_ms_warm,
            speedup_t4: build_ms[0] / build_ms[2].max(1e-9),
            byte_identical,
            graph_mib: g.memory_bytes() as f64 / (1024.0 * 1024.0),
            arena_cold_allocs: cold.0,
            arena_cold_bytes: cold.1,
            arena_warm_allocs: warm.allocations,
            arena_warm_bytes: warm.allocated_bytes,
            arena_warm_reuses: warm.reuses,
            arena_warm_reused_bytes: warm.reused_bytes,
            algorithm: "greedy-mis",
            algo_wall_ms,
            algo_rounds,
            algo_ok,
        };
        // The arena contract: a warm rebuild must allocate at least 10×
        // less than the cold build did (in practice it allocates ~0).
        if row.arena_cold_allocs > 0 && 10 * row.arena_warm_allocs > row.arena_cold_allocs {
            eprintln!(
                "{}: warm rebuild allocated {} buffers vs {} cold — arena not reused",
                sc.name, row.arena_warm_allocs, row.arena_cold_allocs
            );
            failed = true;
        }
        eprintln!(
            "{:<20} n={:<8} m={:<9} build seq={:.0}ms t4={:.0}ms warm={:.0}ms \
             arena cold={}B warm={}B mis={:.0}ms",
            row.scenario,
            row.n,
            row.edges,
            row.build_ms_seq,
            row.build_ms_t4,
            row.build_ms_warm,
            row.arena_cold_bytes,
            row.arena_warm_bytes,
            row.algo_wall_ms
        );
        rows.push(row);
    }

    // Flat-rounds assertion (full mode): Theorem 1.1 rounds are
    // O(log log Δ) — at fixed average degree the 2²⁴ tier must sit within
    // additive slack of the 2²⁰–2²¹ baseline.
    if !smoke {
        let rounds_of = |name: &str| {
            rows.iter()
                .find(|r| r.scenario == name && r.algo_ok)
                .map(|r| r.algo_rounds)
        };
        match (
            rounds_of("scale-gnp-16m"),
            rounds_of("scale-gnp-1m"),
            rounds_of("scale-gnp-2m"),
        ) {
            (Some(big), Some(base1), Some(base2)) => {
                let baseline = base1.max(base2);
                if big > baseline + FLAT_ROUNDS_SLACK {
                    eprintln!(
                        "flat-rounds violation: scale-gnp-16m took {big} rounds vs \
                         baseline {baseline} (+{FLAT_ROUNDS_SLACK} slack)"
                    );
                    failed = true;
                } else {
                    eprintln!("flat-rounds ok: scale-gnp-16m {big} rounds vs baseline {baseline}");
                }
            }
            _ => {
                eprintln!("flat-rounds assertion skipped: missing a gnp tier row");
                failed = true;
            }
        }
    }

    let mut table = Table::new(
        if smoke {
            "scale tier (smoke, n = 2^17 / 2^18)"
        } else {
            "scale tier"
        },
        &[
            "scenario",
            "n",
            "edges",
            "max_degree",
            "build_ms_seq",
            "build_ms_t2",
            "build_ms_t4",
            "build_ms_warm",
            "speedup_t4",
            "byte_identical",
            "graph_mib",
            "arena_cold_bytes",
            "arena_warm_bytes",
            "algo_wall_ms",
            "algo_rounds",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.scenario.to_string(),
            r.n.to_string(),
            r.edges.to_string(),
            r.max_degree.to_string(),
            format!("{:.1}", r.build_ms_seq),
            format!("{:.1}", r.build_ms_t2),
            format!("{:.1}", r.build_ms_t4),
            format!("{:.1}", r.build_ms_warm),
            format!("{:.2}", r.speedup_t4),
            r.byte_identical.to_string(),
            format!("{:.1}", r.graph_mib),
            r.arena_cold_bytes.to_string(),
            r.arena_warm_bytes.to_string(),
            format!("{:.1}", r.algo_wall_ms),
            r.algo_rounds.to_string(),
        ]);
    }
    table.print();

    let doc = Json::obj(vec![
        ("schema", Json::Str("mmvc-bench-scale/v2".to_string())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
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
                            ("n", Json::Int(r.n as i64)),
                            ("edges", Json::Int(r.edges as i64)),
                            ("max_degree", Json::Int(r.max_degree as i64)),
                            ("build_ms_seq", Json::Float(r.build_ms_seq)),
                            ("build_ms_t2", Json::Float(r.build_ms_t2)),
                            ("build_ms_t4", Json::Float(r.build_ms_t4)),
                            ("build_ms_warm", Json::Float(r.build_ms_warm)),
                            ("speedup_t4", Json::Float(r.speedup_t4)),
                            ("byte_identical", Json::Bool(r.byte_identical)),
                            ("graph_mib", Json::Float(r.graph_mib)),
                            ("arena_cold_allocs", Json::Int(r.arena_cold_allocs as i64)),
                            ("arena_cold_bytes", Json::Int(r.arena_cold_bytes as i64)),
                            ("arena_warm_allocs", Json::Int(r.arena_warm_allocs as i64)),
                            ("arena_warm_bytes", Json::Int(r.arena_warm_bytes as i64)),
                            ("arena_warm_reuses", Json::Int(r.arena_warm_reuses as i64)),
                            (
                                "arena_warm_reused_bytes",
                                Json::Int(r.arena_warm_reused_bytes as i64),
                            ),
                            ("algorithm", Json::Str(r.algorithm.to_string())),
                            ("algo_wall_ms", Json::Float(r.algo_wall_ms)),
                            ("algo_rounds", Json::Int(r.algo_rounds as i64)),
                            ("algo_ok", Json::Bool(r.algo_ok)),
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
        eprintln!("error: scale tier had failures (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

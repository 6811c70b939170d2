//! The experiment registry: every measured table of `EXPERIMENTS.md`,
//! one function per experiment.
//!
//! Each experiment declares its sweep as [`RunSpec`]s on the executor it
//! is given, runs them through the run driver, and returns its tables.
//! [`ALL`] lists them under their sidecar names, and [`sidecar`] renders
//! the document checked in as `experiments/<name>.json`. The crate's
//! `sidecars` test runs every entry on three threads and compares the
//! rendered document with the checked-in one; by the round engine's
//! determinism contract the executor changes wall time only, never a
//! cell.

use crate::{approx_ratio, max, mean, min, substrate_cells, Table};
use mmvc_core::json::Json;
use mmvc_core::matching::{round_fractional, ThresholdMode};
use mmvc_core::run::{run, run_detailed, run_on, AlgorithmKind, RunArtifacts, RunReport, RunSpec};
use mmvc_core::Epsilon;
use mmvc_graph::{generators, matching, scenarios, Graph};
use mmvc_substrate::ExecutorConfig;

/// An experiment: its tables, computed on the given executor.
pub type Experiment = fn(&ExecutorConfig) -> Vec<Table>;

/// Every experiment under its sidecar name, in E1…E13 order.
pub const ALL: [(&str, Experiment); 13] = [
    ("exp_e1", e1),
    ("exp_e2", e2),
    ("exp_e3", e3),
    ("exp_e4", e4),
    ("exp_e5", e5),
    ("exp_e6", e6),
    ("exp_e7", e7),
    ("exp_e8", e8),
    ("exp_e9", e9),
    ("exp_e10", e10),
    ("exp_e11", e11),
    ("exp_e12", e12),
    ("exp_e13", e13),
];

/// The sidecar document of experiment `name`: its name and its tables,
/// the bytes of `experiments/<name>.json`.
pub fn sidecar(name: &str, tables: &[Table]) -> String {
    Json::obj(vec![
        ("experiment", Json::Str(name.to_string())),
        (
            "tables",
            Json::Arr(tables.iter().map(Table::to_json).collect()),
        ),
    ])
    .render()
}

/// A spec of `kind` on `scenario` at `seed`, on `executor`.
fn spec(kind: AlgorithmKind, scenario: &str, seed: u64, executor: &ExecutorConfig) -> RunSpec {
    let mut spec = RunSpec::new(kind, scenario);
    spec.seed = seed;
    spec.executor = executor.clone();
    spec
}

/// E1 — Theorem 1.1: MIS in `O(log log Δ)` MPC rounds.
///
/// Sweeps `n` at (roughly) fixed average degree and sweeps `Δ` at fixed
/// `n`, reporting prefix phases, sparsified-stage rounds, and total MPC
/// rounds against the `log₂ log₂ Δ` reference curve. The first sweep is
/// the registry scenario `gnp-mid` (average degree 64) at increasing
/// sizes, so the table cannot drift from the family it is named for; the
/// second is an ad-hoc parameter sweep through `run_on`.
pub fn e1(executor: &ExecutorConfig) -> Vec<Table> {
    fn cells(report: &RunReport) -> Vec<String> {
        assert!(report.ok(), "witness or budget failure");
        let mut cells = vec![
            report.n.to_string(),
            report.num_edges.to_string(),
            report.max_degree.to_string(),
            report.metric("prefix_phases").expect("emitted").to_string(),
            report.metric("local_rounds").expect("emitted").to_string(),
        ];
        cells.extend(substrate_cells(&report.substrate));
        cells.push(report.witnesses[0].size.to_string());
        cells
    }
    const BEFORE: [&str; 5] = ["n", "edges", "maxdeg", "phases", "local_rounds"];

    let mut by_n =
        Table::with_substrate("sweep n at average degree 64 (gnp-mid)", &BEFORE, &["mis"]);
    for k in 10..=16 {
        let mut s = spec(AlgorithmKind::GreedyMis, "gnp-mid", k as u64, executor);
        s.n = Some(1 << k);
        let report = run(&s).expect("simulation fits budget");
        by_n.push(cells(&report));
    }
    let mut by_deg = Table::with_substrate("sweep Δ at n = 16384", &BEFORE, &["mis"]);
    for (i, deg) in [16.0, 64.0, 256.0, 1024.0, 4096.0].into_iter().enumerate() {
        let n = 16384usize;
        let seed = 100 + i as u64;
        let p = (deg / (n as f64 - 1.0)).min(1.0);
        let g = generators::gnp(n, p, seed).expect("valid p");
        let s = spec(AlgorithmKind::GreedyMis, "gnp", seed, executor);
        let report = run_on(&g, "gnp", &s).expect("simulation fits budget");
        by_deg.push(cells(&report));
    }
    vec![by_n, by_deg]
}

/// E2 — Section 3.3 / Lemma 3.1 / Eq. (1): each rank-prefix phase ships
/// `O(n)` edges to a single machine.
///
/// Reports, per graph, the largest number of words any phase shipped and
/// its ratio to `n`; the claim is that this ratio is bounded by a
/// constant independent of `n` and `Δ`. Runs on the registry's dense
/// family (`gnp-dense`, average degree `n/8`, the stress case for
/// Lemma 3.1).
pub fn e2(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "sweep n on gnp-dense",
        &[
            "n",
            "edges",
            "maxdeg",
            "phases",
            "max_phase_words",
            "words_over_n",
            "budget_8n",
        ],
    );
    for k in 10..=15 {
        let n = 1usize << k;
        let mut s = spec(AlgorithmKind::GreedyMis, "gnp-dense", k as u64, executor);
        s.n = Some(n);
        let report = run(&s).expect("fits budget");
        assert!(report.ok(), "witness or budget failure");
        let max_words = report.metric_f64("max_phase_words").expect("emitted") as usize;
        table.push(vec![
            report.n.to_string(),
            report.num_edges.to_string(),
            report.max_degree.to_string(),
            report.metric("prefix_phases").expect("emitted").to_string(),
            max_words.to_string(),
            format!("{:.3}", max_words as f64 / n as f64),
            (8 * n).to_string(),
        ]);
    }
    vec![table]
}

/// E3 — Lemma 4.1: `Central` terminates in `O(log n / ε)` iterations and
/// yields a `(2+5ε)` fractional matching and vertex cover.
///
/// The first table sweeps `n` (iterations should grow like `log n`); the
/// second sweeps `ε` (iterations like `1/ε·log n`, ratios tightening as
/// `ε` shrinks). Ratios are measured against the exact blossom optimum
/// `|M*|`: `matching_ratio = |M*| / W(x)` (claimed `≤ 2+5ε`) and
/// `cover_vs_lb = |C| / |M*|` (claimed `≤ 2(2+5ε)` via `VC* ≤ 2|M*|`;
/// typically far smaller). Runs use the fixed (Lemma 4.1) threshold rule;
/// the iteration bound column is the driver's claimed-rounds curve.
pub fn e3(executor: &ExecutorConfig) -> Vec<Table> {
    let row = |table: &mut Table, n: usize, p: f64, eps: f64, seed: u64| {
        let g = generators::gnp(n, p, seed).expect("valid p");
        let mut s = spec(AlgorithmKind::Central, "gnp", seed, executor);
        s.eps = Epsilon::new(eps).expect("valid eps");
        s.overrides.threshold_mode = Some(ThresholdMode::Fixed);
        let report = run_on(&g, "gnp", &s).expect("central is total");
        assert!(report.ok(), "cover must cover");
        let opt = matching::blossom(&g).len() as f64;
        let frac_weight = report.metric_f64("frac_weight").expect("emitted");
        table.push(vec![
            n.to_string(),
            report.num_edges.to_string(),
            format!("{eps}"),
            report.substrate.rounds.to_string(),
            format!("{:.0}", report.substrate.claimed_rounds),
            format!("{:.3}", approx_ratio(opt, frac_weight)),
            format!("{:.1}", 2.0 + 5.0 * eps),
            format!("{:.3}", report.witnesses[0].size as f64 / opt.max(1.0)),
        ]);
    };
    const COLUMNS: [&str; 8] = [
        "n",
        "edges",
        "eps",
        "iterations",
        "iter_bound",
        "matching_ratio",
        "claimed",
        "cover_vs_lb",
    ];

    let mut by_n = Table::new("sweep n (eps = 0.1, G(n, 16/n))", &COLUMNS);
    for k in 7..=12 {
        let n = 1usize << k;
        row(&mut by_n, n, 16.0 / n as f64, 0.1, k as u64);
    }
    let mut by_eps = Table::new("sweep eps (n = 1024, G(n, 16/n))", &COLUMNS);
    for (i, eps) in [0.1, 0.05, 0.02, 0.01].into_iter().enumerate() {
        row(&mut by_eps, 1024, 16.0 / 1024.0, eps, 200 + i as u64);
    }
    vec![by_n, by_eps]
}

/// E4 — Theorem 1.2 / Lemma 4.2: `MPC-Simulation` runs in
/// `O(log log n)` rounds and yields `(2+50ε)`-approximate fractional
/// matching and cover.
///
/// Sweeps the registry's dense family (`gnp-dense`, degree `~n/8`, so
/// the phase loop genuinely runs) and reports phases, communicating
/// rounds, covered iterations, and the measured approximation ratios
/// (against blossom up to n = 4096, against the greedy-matching lower
/// bound above that).
pub fn e4(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::with_substrate(
        "sweep n on gnp-dense",
        &["n", "edges", "phases"],
        &[
            "tail_rounds",
            "iterations",
            "frac_weight",
            "opt_lb",
            "matching_ratio",
            "cover",
            "cover_vs_lb",
            "removed",
        ],
    );
    let scenario = scenarios::get("gnp-dense").expect("registered");
    for k in 9..=14 {
        let n = 1usize << k;
        let g = scenario.build_with(n, k as u64).expect("valid scenario");
        let s = spec(AlgorithmKind::MpcMatching, "gnp-dense", k as u64, executor);
        let report = run_on(&g, "gnp-dense", &s).expect("simulation fits budget");
        assert!(report.ok(), "cover must cover");
        // Exact optimum is affordable up to 4096 vertices; beyond that use
        // the maximal-matching lower bound (within 2x of optimum).
        let (opt, exact) = if n <= 4096 {
            (matching::blossom(&g).len() as f64, true)
        } else {
            (matching::greedy_maximal_matching(&g).len() as f64, false)
        };
        let frac_weight = report.metric_f64("frac_weight").expect("emitted");
        let cover = report.witnesses[0].size;
        let mut cells = vec![
            n.to_string(),
            report.num_edges.to_string(),
            report.metric("phases").expect("emitted").to_string(),
        ];
        cells.extend(substrate_cells(&report.substrate));
        cells.extend([
            report
                .metric("tail_iterations")
                .expect("emitted")
                .to_string(),
            report.metric("iterations").expect("emitted").to_string(),
            format!("{frac_weight:.1}"),
            format!("{}{}", if exact { "" } else { ">=" }, opt),
            format!("{:.3}", approx_ratio(opt, frac_weight)),
            cover.to_string(),
            format!("{:.3}", cover as f64 / opt.max(1.0)),
            report.metric("removed").expect("emitted").to_string(),
        ]);
        table.push(cells);
    }
    vec![table]
}

/// E5 — Lemma 5.1: rounding a fractional matching yields an integral one
/// of size `≥ |C̃|/50` with probability `≥ 1 − 2·exp(−|C̃|/5000)`.
///
/// Runs `MPC-Simulation` once per size, then rounds the same fractional
/// matching (from the run artifacts) under 200 independent seeds,
/// reporting the distribution of `|M| / |C̃|` and the number of trials
/// below the lemma's 1/50 bound.
pub fn e5(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "sweep n (eps = 0.1, G(n, 32/n))",
        &[
            "n",
            "candidates",
            "mean_ratio",
            "min_ratio",
            "max_ratio",
            "lemma_bound",
            "below_bound",
            "fail_prob_bound",
        ],
    );
    for k in 10..=13 {
        let n = 1usize << k;
        let g = generators::gnp(n, 32.0 / n as f64, k as u64).expect("valid p");
        let s = spec(AlgorithmKind::MpcMatching, "gnp", k as u64, executor);
        let (report, artifacts) = run_detailed(&g, "gnp", &s).expect("fits budget");
        assert!(report.ok(), "cover must cover");
        let RunArtifacts::MpcMatching(out) = artifacts else {
            panic!("driver returned wrong artifacts");
        };
        let candidates = out.heavy_certificate;
        if candidates.is_empty() {
            continue;
        }
        let ratios: Vec<f64> = (0..200u64)
            .map(|s| {
                let m = round_fractional(&g, &out.fractional, &candidates, s ^ 0xE5)
                    .expect("valid candidates");
                m.len() as f64 / candidates.len() as f64
            })
            .collect();
        let below = ratios.iter().filter(|&&r| r < 1.0 / 50.0).count();
        table.push(vec![
            n.to_string(),
            candidates.len().to_string(),
            format!("{:.4}", mean(&ratios)),
            format!("{:.4}", min(&ratios)),
            format!("{:.4}", max(&ratios)),
            format!("{:.4}", 1.0 / 50.0),
            below.to_string(),
            format!("{:.2e}", 2.0 * (-(candidates.len() as f64) / 5000.0).exp()),
        ]);
    }
    vec![table]
}

/// E6 — Corollary 1.3: `(1+ε)`-approximate maximum matching.
///
/// Sweeps `ε` on bipartite and general graphs, reporting the measured
/// ratio against the exact optimum (Hopcroft–Karp / blossom) and the
/// augmentation effort.
pub fn e6(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "sweep eps on bipartite and general graphs",
        &[
            "graph",
            "n",
            "eps",
            "path_limit",
            "matched",
            "optimum",
            "ratio",
            "claimed",
            "passes",
        ],
    );
    let mut row = |label: &str, g: &Graph, opt: f64, eps_v: f64, seed: u64| {
        let mut s = spec(AlgorithmKind::OnePlusEpsMatching, label, seed, executor);
        s.eps = Epsilon::new(eps_v).expect("valid eps");
        let report = run_on(g, label, &s).expect("runs");
        assert!(report.ok(), "matching must validate");
        let matched = report.witnesses[0].size;
        table.push(vec![
            label.to_string(),
            g.num_vertices().to_string(),
            format!("{eps_v}"),
            report.metric("path_limit").expect("emitted").to_string(),
            matched.to_string(),
            format!("{opt:.0}"),
            format!("{:.4}", approx_ratio(opt, matched as f64)),
            format!("{:.2}", 1.0 + eps_v),
            report.metric("passes").expect("emitted").to_string(),
        ]);
    };
    for (i, eps_v) in [0.1, 0.05, 0.02].into_iter().enumerate() {
        let seed = 60 + i as u64;

        let bip = generators::bipartite_gnp(1024, 1024, 12.0 / 1024.0, seed).expect("valid p");
        let opt = matching::hopcroft_karp(&bip).expect("bipartite").len() as f64;
        row("bipartite", &bip, opt, eps_v, seed);

        let gen = generators::gnp(1500, 14.0 / 1500.0, seed ^ 0xF00).expect("valid p");
        let opt = matching::blossom(&gen).len() as f64;
        row("general", &gen, opt, eps_v, seed);
    }
    vec![table]
}

/// E7 — Baseline comparison (paper §1.2): the paper's `O(log log)`
/// algorithms against the classical `O(log n)` baselines on shared
/// graphs.
///
/// MIS: Theorem 1.1 simulation vs Luby. Matching: `MPC-Simulation` +
/// rounding rounds vs LMSV filtering rounds vs `Central`'s iteration
/// count (each `Central` iteration is at best one MPC round). Every
/// contender is one driver run on the shared `gnp-dense` graph.
pub fn e7(executor: &ExecutorConfig) -> Vec<Table> {
    let rounds = |g: &Graph, kind: AlgorithmKind, seed: u64, fixed_central: bool| {
        let mut s = spec(kind, "gnp-dense", seed, executor);
        if fixed_central {
            s.overrides.threshold_mode = Some(ThresholdMode::Fixed);
        }
        let report = run_on(g, "gnp-dense", &s).expect("fits budget");
        assert!(report.ok(), "{kind} failed validation");
        report.substrate.rounds.to_string()
    };
    let scenario = scenarios::get("gnp-dense").expect("registered");

    let mut mis_table = Table::new(
        "MIS rounds vs n on gnp-dense",
        &["n", "maxdeg", "ours_rounds", "luby_rounds"],
    );
    for k in 10..=15 {
        let n = 1usize << k;
        let g = scenario.build_with(n, k as u64).expect("valid scenario");
        mis_table.push(vec![
            n.to_string(),
            g.max_degree().to_string(),
            rounds(&g, AlgorithmKind::GreedyMis, k as u64, false),
            rounds(&g, AlgorithmKind::LubyMis, k as u64, false),
        ]);
    }

    let mut match_table = Table::new(
        "matching rounds vs n on gnp-dense",
        &[
            "n",
            "edges",
            "thm12_rounds",
            "filtering_rounds",
            "central_iterations",
        ],
    );
    for k in 10..=13 {
        let n = 1usize << k;
        let g = scenario
            .build_with(n, 70 + k as u64)
            .expect("valid scenario");
        match_table.push(vec![
            n.to_string(),
            g.num_edges().to_string(),
            rounds(&g, AlgorithmKind::IntegralMatching, k as u64, false),
            rounds(&g, AlgorithmKind::Filtering, k as u64, false),
            rounds(&g, AlgorithmKind::Central, k as u64, true),
        ]);
    }
    vec![mis_table, match_table]
}

/// E8 — Lemmas 4.11/4.15: how far the distributed estimates stray from
/// the coupled `Central-Rand` reference.
///
/// Reports the bad-vertex fraction (Definition 4.9, measured at phase
/// ends), the maximum observed `|y − ỹ|`, and the fraction of vertices
/// removed for exceeding weight 1 (line (i), the escape hatch for
/// estimate failures). The estimate noise scales like `~0.7·d^(-1/4)`,
/// so all three should shrink as the graphs grow. One run per size with
/// the diagnostics override.
pub fn e8(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "sweep n",
        &[
            "n",
            "maxdeg",
            "phases",
            "compared",
            "bad_fraction",
            "max_est_error",
            "noise_model",
            "removed_fraction",
        ],
    );
    for k in 9..=13 {
        let n = 1usize << k;
        let g = generators::gnp(n, 0.2, k as u64).expect("valid p");
        let mut s = spec(AlgorithmKind::MpcMatching, "gnp", k as u64, executor);
        s.overrides.diagnostics = true;
        let report = run_on(&g, "gnp", &s).expect("fits budget");
        assert!(report.ok(), "cover must cover");
        let d = report.max_degree as f64;
        let removed = report.metric_f64("removed").expect("emitted");
        table.push(vec![
            n.to_string(),
            report.max_degree.to_string(),
            report.metric("phases").expect("emitted").to_string(),
            report
                .metric("compared_vertices")
                .expect("diagnostics requested")
                .to_string(),
            format!("{:.4}", report.metric_f64("bad_fraction").expect("emitted")),
            format!(
                "{:.4}",
                report.metric_f64("max_estimate_error").expect("emitted")
            ),
            format!("{:.4}", 0.7 * d.powf(-0.25)),
            format!("{:.4}", removed / n as f64),
        ]);
    }
    vec![table]
}

/// E9 — Corollary 1.4: `(2+ε)`-approximate maximum weighted matching.
///
/// The first table checks the ratio against the exact optimum on tiny
/// graphs (exhaustive search); the second reports, at realistic sizes,
/// the weight against the heaviest-first greedy reference and the
/// class/round profile as the weight range widens. The weighted instance
/// comes back in the run artifacts, so the references score the exact
/// same weights.
pub fn e9(executor: &ExecutorConfig) -> Vec<Table> {
    let weighted_run = |g: &Graph, seed: u64, w_max: f64| {
        let mut s = spec(AlgorithmKind::WeightedMatching, "gnp", seed, executor);
        s.overrides.weight_range = (1.0, w_max);
        let (report, artifacts) = run_detailed(g, "gnp", &s).expect("runs");
        assert!(report.ok(), "matching must validate");
        let RunArtifacts::WeightedMatching(out, wg) = artifacts else {
            panic!("driver returned wrong artifacts");
        };
        (report, out, wg)
    };
    // The ε every weighted run actually uses (the spec default), so the
    // claimed bound stays coupled to the bound the runs were held to.
    let eps = RunSpec::new(AlgorithmKind::WeightedMatching, "gnp").eps;

    let mut ratios = Vec::new();
    for seed in 0..60u64 {
        let g = generators::gnp(8, 0.5, seed).expect("valid p");
        if g.num_edges() == 0 || g.num_edges() > 20 {
            continue;
        }
        let (_, out, wg) = weighted_run(&g, seed, 100.0);
        let opt = wg.brute_force_max_weight_matching();
        if out.total_weight > 0.0 {
            ratios.push(opt / out.total_weight);
        }
    }
    let mut tiny = Table::new(
        "tiny-instance ratios",
        &["instances", "mean_ratio", "worst_ratio", "claimed"],
    );
    tiny.push(vec![
        ratios.len().to_string(),
        format!("{:.3}", mean(&ratios)),
        format!("{:.3}", max(&ratios)),
        format!("{:.1}", 2.0 * (1.0 + eps.get())),
    ]);

    let mut sweep = Table::new(
        "weight range sweep",
        &[
            "w_max",
            "classes",
            "class_rounds",
            "our_weight",
            "greedy_weight",
            "our/greedy",
        ],
    );
    for (i, w_max) in [2.0, 10.0, 100.0, 10_000.0].into_iter().enumerate() {
        let seed = 90 + i as u64;
        let g = generators::gnp(2048, 12.0 / 2048.0, seed).expect("valid p");
        let (report, out, wg) = weighted_run(&g, seed, w_max);
        let greedy = {
            let mut order: Vec<usize> = (0..wg.graph().num_edges()).collect();
            order.sort_by(|&a, &b| wg.weight(b).total_cmp(&wg.weight(a)));
            let m = matching::greedy_maximal_matching_ordered(wg.graph(), &order);
            wg.matching_weight(&m)
        };
        sweep.push(vec![
            format!("{w_max}"),
            report.metric("classes").expect("emitted").to_string(),
            report.substrate.rounds.to_string(),
            format!("{:.1}", out.total_weight),
            format!("{greedy:.1}"),
            format!("{:.3}", out.total_weight / greedy.max(1e-9)),
        ]);
    }
    vec![tiny, sweep]
}

/// E10 — Theorem 1.1 in CONGESTED-CLIQUE, and the Lenzen routing budget.
///
/// Sweeps `n`, reporting total clique rounds against `log₂ log₂ Δ` and
/// the per-round inbound word maximum, which must stay at or below `n`
/// (the precondition of Lenzen's routing scheme; violating it would
/// abort the simulation). The budget is declared on the spec, so the
/// driver itself fails the run if routing ever exceeds `n` words.
pub fn e10(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::with_substrate(
        "sweep n",
        &["n", "maxdeg", "phases", "local_rounds"],
        &["inflow_budget"],
    );
    for k in 9..=13 {
        let n = 1usize << k;
        let g = generators::gnp(n, 64.0 / n as f64, k as u64).expect("valid p");
        let mut s = spec(AlgorithmKind::CliqueMis, "gnp", k as u64, executor);
        s.budget.max_load_words = Some(n);
        let report = run_on(&g, "gnp", &s).expect("feasible routing");
        assert!(report.ok(), "witness or Lenzen budget failure");
        let mut cells = vec![
            n.to_string(),
            report.max_degree.to_string(),
            report.metric("prefix_phases").expect("emitted").to_string(),
            report.metric("local_rounds").expect("emitted").to_string(),
        ];
        cells.extend(substrate_cells(&report.substrate));
        cells.push(n.to_string());
        table.push(cells);
    }
    vec![table]
}

/// E11 (ablation) — why random thresholds? (paper §4.2 vs §4.3)
///
/// Section 4.2 argues that simulating `Central` with a *fixed* threshold
/// is fragile: any estimation error near the single threshold `1−2ε`
/// flips freeze decisions for many vertices at once, and the deviations
/// compound. Section 4.3's random thresholds `T(v,t) ~ U[1−4ε, 1−2ε]`
/// make a flip probability proportional to the estimate error
/// (Lemma 4.11). This ablation runs both ways (the `threshold_mode`
/// override) with coupled-reference diagnostics and compares the
/// bad-vertex fraction and the removal (weight > 1) escape-hatch usage.
pub fn e11(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "threshold ablation (eps = 0.1, G(n, 0.2))",
        &[
            "n",
            "mode",
            "bad_fraction",
            "max_est_error",
            "removed",
            "frac_weight",
            "cover",
        ],
    );
    for k in [10usize, 11, 12] {
        let n = 1 << k;
        let g = generators::gnp(n, 0.2, k as u64).expect("valid p");
        for mode in [ThresholdMode::Random, ThresholdMode::Fixed] {
            let mut s = spec(AlgorithmKind::MpcMatching, "gnp", k as u64, executor);
            s.overrides.diagnostics = true;
            s.overrides.threshold_mode = Some(mode);
            let report = run_on(&g, "gnp", &s).expect("fits budget");
            assert!(report.ok(), "cover must cover");
            table.push(vec![
                n.to_string(),
                format!("{mode:?}"),
                format!("{:.4}", report.metric_f64("bad_fraction").expect("emitted")),
                format!(
                    "{:.4}",
                    report.metric_f64("max_estimate_error").expect("emitted")
                ),
                report.metric("removed").expect("emitted").to_string(),
                format!("{:.1}", report.metric_f64("frac_weight").expect("emitted")),
                report.witnesses[0].size.to_string(),
            ]);
        }
    }
    vec![table]
}

/// E12 (ablation) — the `m = √d` machine count.
///
/// The paper partitions each phase over `m = √d` machines so that every
/// machine's induced subgraph has `O(n)` edges (Lemma 4.7). The estimate
/// noise scales like `√(m/deg)`, so more machines mean cheaper memory but
/// noisier estimates. This ablation sweeps a multiplier `c` in
/// `m = c·√d` (the `machine_factor` override), reporting estimate
/// fidelity and the per-machine memory high-water mark: the two sides of
/// the trade-off the paper's choice balances.
pub fn e12(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::new(
        "machine-count ablation",
        &[
            "c",
            "bad_fraction",
            "max_est_error",
            "removed",
            "max_load_words",
            "budget",
            "frac_weight",
        ],
    );
    let n = 4096;
    let g = generators::gnp(n, 0.2, 12).expect("valid p");
    for c in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut s = spec(AlgorithmKind::MpcMatching, "gnp", 12, executor);
        s.overrides.diagnostics = true;
        s.overrides.machine_factor = Some(c);
        // Give the small-m settings the memory they need so the ablation
        // isolates the noise effect.
        let space_factor = 64.0 / c.min(1.0);
        s.overrides.space_factor = Some(space_factor);
        let report = run_on(&g, "gnp", &s).expect("fits budget");
        assert!(report.ok(), "cover must cover");
        table.push(vec![
            format!("{c}"),
            format!("{:.4}", report.metric_f64("bad_fraction").expect("emitted")),
            format!(
                "{:.4}",
                report.metric_f64("max_estimate_error").expect("emitted")
            ),
            report.metric("removed").expect("emitted").to_string(),
            report.substrate.max_load_words.to_string(),
            ((space_factor * n as f64) as usize).to_string(),
            format!("{:.1}", report.metric_f64("frac_weight").expect("emitted")),
        ]);
    }
    vec![table]
}

/// E13 — §1.3 remark: matching and vertex cover with `O(n/polylog n)`
/// memory per machine.
///
/// The paper presents its algorithms at `Õ(n)` memory and notes they "can
/// be adjusted to still run in O(log log n) MPC rounds even when the
/// memory per machine is O(n/polylog n)". The adjustment: `√reduction`
/// more machines per phase, so the induced subgraphs shrink with the
/// budget. This experiment sweeps the `memory_reduction` override and
/// reports rounds, measured per-machine load, and quality; rounds must
/// stay flat while memory shrinks.
pub fn e13(executor: &ExecutorConfig) -> Vec<Table> {
    let mut table = Table::with_substrate(
        "memory reduction sweep on gnp-dense",
        &["reduction", "budget_words", "phases"],
        &["frac_weight", "matching_ratio", "removed"],
    );
    let n = 4096;
    let g = scenarios::get("gnp-dense")
        .expect("registered")
        .build_with(n, 13)
        .expect("valid scenario");
    let opt = matching::blossom(&g).len() as f64;
    for reduction in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut s = spec(AlgorithmKind::MpcMatching, "gnp-dense", 13, executor);
        s.overrides.memory_reduction = Some(reduction);
        let report = run_on(&g, "gnp-dense", &s).expect("fits budget");
        assert!(report.ok(), "cover must cover");
        let frac_weight = report.metric_f64("frac_weight").expect("emitted");
        let mut cells = vec![
            format!("{reduction}"),
            ((8.0 / reduction * n as f64).ceil() as usize).to_string(),
            report.metric("phases").expect("emitted").to_string(),
        ];
        cells.extend(substrate_cells(&report.substrate));
        cells.extend([
            format!("{frac_weight:.1}"),
            format!("{:.3}", approx_ratio(opt, frac_weight)),
            report.metric("removed").expect("emitted").to_string(),
        ]);
        table.push(cells);
    }
    vec![table]
}

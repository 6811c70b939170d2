//! Integration tests for the *model accounting*: the substrates must
//! verify the paper's round/memory/bandwidth claims rather than assume
//! them, and must fail loudly when an algorithm is run outside the
//! claimed regime.

use mmvc::core::filtering::{filtering_maximal_matching, FilteringConfig};
use mmvc::core::matching::{mpc_simulation, MpcMatchingConfig, PhaseSchedule};
use mmvc::core::mis::{clique_mis, greedy_mpc_mis, CliqueMisConfig, GreedyMisConfig};
use mmvc::core::{CoreError, Epsilon};
use mmvc::graph::generators;
use mmvc::substrate::{ExecutorConfig, SubstrateError};

fn eps() -> Epsilon {
    Epsilon::new(0.1).expect("valid eps")
}

/// The round engine's determinism contract: `Sequential` and
/// `Threaded{1,2,8}` executors on every ported algorithm.
fn executors() -> [ExecutorConfig; 4] {
    [
        ExecutorConfig::sequential(),
        ExecutorConfig::with_threads(1),
        ExecutorConfig::with_threads(2),
        ExecutorConfig::with_threads(8),
    ]
}

#[test]
fn mis_memory_scales_linearly_not_quadratically() {
    // Doubling n roughly doubles the max machine load (O(n) words), even
    // though the edge count quadruples in the dense regime.
    let g1 = generators::gnp(1024, 0.25, 1).unwrap();
    let g2 = generators::gnp(2048, 0.25, 1).unwrap();
    let l1 = greedy_mpc_mis(&g1, &GreedyMisConfig::new(1))
        .unwrap()
        .trace
        .max_load_words();
    let l2 = greedy_mpc_mis(&g2, &GreedyMisConfig::new(1))
        .unwrap()
        .trace
        .max_load_words();
    assert!(
        (l2 as f64) < 4.0 * l1 as f64,
        "load grew superlinearly: {l1} -> {l2} when n doubled"
    );
    assert!(l2 <= 8 * 2048, "load exceeds the 8n budget");
}

#[test]
fn matching_rounds_grow_sublogarithmically() {
    // Rounds at n and at n² should be within a small additive band —
    // log-log growth — while central-style iteration counts would double.
    let small = generators::gnp(256, 0.25, 2).unwrap();
    let large = generators::gnp(4096, 0.25, 2).unwrap();
    let r_small = mpc_simulation(&small, &MpcMatchingConfig::new(eps(), 2))
        .unwrap()
        .trace
        .rounds();
    let r_large = mpc_simulation(&large, &MpcMatchingConfig::new(eps(), 2))
        .unwrap()
        .trace
        .rounds();
    assert!(
        r_large <= r_small + 24,
        "rounds {r_small} -> {r_large}: not log-log-ish when n grew 16x"
    );
}

#[test]
fn starved_budget_fails_with_memory_error_not_wrong_answer() {
    let g = generators::gnp(1024, 0.3, 3).unwrap();
    let mut cfg = MpcMatchingConfig::new(eps(), 3);
    cfg.space_factor = 0.02;
    match mpc_simulation(&g, &cfg) {
        Err(CoreError::Substrate(SubstrateError::LoadExceeded {
            substrate: "mpc",
            attempted_words,
            budget_words,
            ..
        })) => {
            assert!(attempted_words > budget_words);
        }
        other => panic!("expected an MPC LoadExceeded, got {other:?}"),
    }
}

#[test]
fn paper_schedule_matches_practical_on_quality() {
    // Both schedules must produce valid, comparable-quality outputs; they
    // differ only in round structure.
    let g = generators::gnp(400, 0.1, 4).unwrap();
    let practical = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), 4)).unwrap();
    let mut paper_cfg = MpcMatchingConfig::new(eps(), 4);
    paper_cfg.schedule = PhaseSchedule::Paper;
    let paper = mpc_simulation(&g, &paper_cfg).unwrap();
    assert!(practical.cover.covers(&g));
    assert!(paper.cover.covers(&g));
    let (wp, wq) = (practical.fractional.weight(), paper.fractional.weight());
    assert!(
        (wp - wq).abs() <= 0.35 * wq.max(1.0),
        "schedules diverge too much: {wp} vs {wq}"
    );
}

#[test]
fn trace_per_round_is_consistent() {
    let g = generators::gnp(512, 0.2, 5).unwrap();
    let out = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), 5)).unwrap();
    let trace = &out.trace;
    assert_eq!(trace.per_round().len(), trace.rounds());
    for (i, r) in trace.per_round().iter().enumerate() {
        assert_eq!(r.round, i + 1, "rounds must be numbered consecutively");
        assert!(r.max_load_words <= r.total_words);
    }
    assert_eq!(
        trace.total_words(),
        trace
            .per_round()
            .iter()
            .map(|r| r.total_words)
            .sum::<usize>()
    );
}

#[test]
fn engine_determinism_mis_on_both_substrates() {
    // Byte-identical outcomes AND byte-identical traces for every
    // executor: on a graph dense enough that the prefix-phase loop (the
    // parallelised per-machine work) genuinely runs, and on a sparse one
    // (Δ ≤ τ) where the local stage carries the run over four chunks.
    let dense = generators::gnp(1024, 0.2, 7).unwrap();
    let sparse = generators::gnp(4096, 8.0 / 4096.0, 7).unwrap();
    for (g, prefix_loop) in [(dense, true), (sparse, false)] {
        let mut mpc_baseline = None;
        let mut clique_baseline = None;
        for exec in executors() {
            let mut cfg = GreedyMisConfig::new(7);
            cfg.executor = exec.clone();
            let out = greedy_mpc_mis(&g, &cfg).unwrap();
            if prefix_loop {
                assert!(out.prefix_phases >= 1, "phase loop must run");
            } else {
                assert_eq!(out.prefix_phases, 0, "Δ ≤ τ: no prefix phase");
                assert!(out.local_rounds >= 1, "the local stage must run");
            }
            let key = (
                out.mis.members().to_vec(),
                out.prefix_phases,
                out.local_rounds,
                out.phase_edge_words.clone(),
                out.trace.clone(),
            );
            match &mpc_baseline {
                None => mpc_baseline = Some(key),
                Some(base) => assert_eq!(&key, base, "MPC MIS diverged under {exec:?}"),
            }

            let mut cfg = CliqueMisConfig::new(7);
            cfg.executor = exec.clone();
            let out = clique_mis(&g, &cfg).unwrap();
            let key = (
                out.mis.members().to_vec(),
                out.prefix_phases,
                out.local_rounds,
                out.trace,
            );
            match &clique_baseline {
                None => clique_baseline = Some(key),
                Some(base) => assert_eq!(&key, base, "clique MIS diverged under {exec:?}"),
            }
        }
    }
}

#[test]
fn engine_determinism_matching_and_filtering() {
    // Same contract for MPC-Simulation (with phases) and the LMSV
    // filtering baseline: identical freeze schedules, fractional
    // matchings, matchings, and traces under every executor.
    let g = generators::gnp(1024, 0.2, 11).unwrap();

    let mut sim_baseline = None;
    let mut filter_baseline = None;
    for exec in executors() {
        let mut cfg = MpcMatchingConfig::new(eps(), 11);
        cfg.executor = exec.clone();
        let out = mpc_simulation(&g, &cfg).unwrap();
        assert!(out.phases >= 1, "phase loop must run");
        let key = (
            out.freeze_iteration.clone(),
            out.removed.clone(),
            out.fractional.clone(),
            out.trace.clone(),
        );
        match &sim_baseline {
            None => sim_baseline = Some(key),
            Some(base) => assert_eq!(&key, base, "MPC-Simulation diverged under {exec:?}"),
        }

        let mut cfg = FilteringConfig::new(11);
        cfg.executor = exec.clone();
        let out = filtering_maximal_matching(&g, &cfg).unwrap();
        assert!(out.filter_rounds >= 1, "filtering must iterate");
        let key = (
            out.matching.edges().to_vec(),
            out.filter_rounds,
            out.trace.clone(),
        );
        match &filter_baseline {
            None => filter_baseline = Some(key),
            Some(base) => assert_eq!(&key, base, "filtering diverged under {exec:?}"),
        }
    }
}

#[test]
fn clique_bandwidth_budget_binds() {
    use mmvc::substrate::clique::CliqueNetwork;
    use mmvc::substrate::Substrate;
    let mut net = CliqueNetwork::new(64).unwrap();
    // A full all-to-all of 3 words costs exactly 3 rounds at 1 word/pair.
    assert_eq!(net.all_to_all(3).unwrap(), 3);
    // A routing instance that sends player 1 more than n = 64 words
    // violates Lenzen's precondition, and the refused route records no
    // round.
    let msgs: Vec<(usize, usize, usize)> = (2..34).map(|p| (p, 1, 3)).collect();
    let err = net.lenzen_route(&msgs).unwrap_err();
    assert!(matches!(
        err,
        SubstrateError::LoadExceeded {
            substrate: "congested-clique",
            round: None,
            attempted_words: 96,
            budget_words: 64,
            ..
        }
    ));
    assert_eq!(net.rounds(), 3);
}

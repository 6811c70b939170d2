//! MIS in `O(log log Δ)` CONGESTED-CLIQUE rounds (paper, Theorem 1.1,
//! Section 3.2, "Simulation in CONGESTED-CLIQUE").
//!
//! The clique variant of the greedy simulation differs from the MPC one
//! only in how data moves:
//!
//! 1. **Agreeing on the ranking** — the lowest-ID player draws the
//!    permutation and tells every player its position (one word each, via
//!    Lenzen routing), then all players broadcast their positions to
//!    everyone (one all-to-all round).
//! 2. **Prefix collection** — players whose rank falls in the current
//!    prefix send their incident residual edges to a leader via Lenzen's
//!    routing scheme; since each prefix carries `O(n)` edges w.h.p.
//!    (Lemma 3.1), a constant number of routing invocations suffices — the
//!    simulator splits overweight instances into batches rather than
//!    assuming the constant.
//! 3. **Result dissemination** — the leader answers each player with one
//!    word ("in MIS or not"); MIS members then notify neighbors in one
//!    round.
//!
//! The sparsified tail charges one clique round per local-process round
//! (each is a single mark-exchange with neighbors), and the final `O(n)`
//! residue is routed to the leader.

use crate::error::CoreError;
use crate::mis::ghaffari_local::{ghaffari_local_mis, LocalMisConfig};
use crate::mis::greedy_mpc::SparsifyThreshold;
use crate::PAR_CHUNK;
use mmvc_graph::mis::IndependentSet;
use mmvc_graph::rng::{hash2, random_permutation};
use mmvc_graph::{Graph, VertexId};
use mmvc_substrate::clique::CliqueNetwork;
use mmvc_substrate::{Bitset, ExecutorConfig, Substrate};

/// Configuration for [`clique_mis`].
#[derive(Debug, Clone, PartialEq)]
pub struct CliqueMisConfig {
    /// Seed for the ranking and the sparsified subroutine.
    pub seed: u64,
    /// Rank-prefix exponent `α` (paper: `3/4`).
    pub alpha: f64,
    /// Degree at which prefix phases hand off to the sparsified MIS.
    pub sparsify: SparsifyThreshold,
    /// How per-player local work executes (results are identical for any
    /// executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

impl CliqueMisConfig {
    /// Default configuration (`α = 3/4`, practical handoff threshold,
    /// threaded executor).
    pub fn new(seed: u64) -> Self {
        CliqueMisConfig {
            seed,
            alpha: 0.75,
            sparsify: SparsifyThreshold::Practical,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Output of [`clique_mis`].
#[derive(Debug, Clone)]
pub struct CliqueMisOutcome {
    /// The maximal independent set.
    pub mis: IndependentSet,
    /// Rank-prefix phases executed.
    pub prefix_phases: usize,
    /// Rounds used by the sparsified local subroutine.
    pub local_rounds: usize,
    /// The per-round substrate record; `trace.rounds()` is the total
    /// CONGESTED-CLIQUE round count (the Theorem 1.1 quantity) and
    /// `trace.max_load_words()` the largest number of words any player
    /// received in one round (bounded by `n` — the Lenzen precondition).
    pub trace: mmvc_substrate::ExecutionTrace,
}

/// Splits a routing instance into feasible chunks and routes each,
/// returning total rounds.
fn route_batched(
    net: &mut CliqueNetwork,
    messages: &[(usize, usize, usize)],
) -> Result<usize, CoreError> {
    // Lenzen's precondition: every player sends and receives at most `n`
    // words per routing instance.
    let n = net.num_players();
    let capacity = n;
    let mut rounds = 0usize;
    let mut batch: Vec<(usize, usize, usize)> = Vec::new();
    let mut out = vec![0usize; n];
    let mut inc = vec![0usize; n];
    for &(from, to, words) in messages {
        // A single message larger than capacity must be split.
        let mut sent = 0usize;
        while sent < words {
            let chunk = (words - sent).min(capacity);
            if out[from] + chunk > capacity || inc[to] + chunk > capacity {
                rounds += net.lenzen_route(&batch)?;
                batch.clear();
                out.fill(0);
                inc.fill(0);
            }
            out[from] += chunk;
            inc[to] += chunk;
            batch.push((from, to, chunk));
            sent += chunk;
        }
    }
    if !batch.is_empty() {
        rounds += net.lenzen_route(&batch)?;
    }
    Ok(rounds)
}

/// Computes an MIS with the Theorem 1.1 CONGESTED-CLIQUE algorithm.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for `alpha` outside `(0, 1)`.
/// * [`CoreError::Substrate`] if the simulated network rejects an
///   operation (cannot happen for valid graphs thanks to batched
///   routing).
///
/// # Examples
///
/// ```
/// use mmvc_core::mis::{clique_mis, CliqueMisConfig};
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(256, 0.1, 1)?;
/// let out = clique_mis(&g, &CliqueMisConfig::new(7))?;
/// assert!(out.mis.is_maximal(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn clique_mis(g: &Graph, config: &CliqueMisConfig) -> Result<CliqueMisOutcome, CoreError> {
    if !(0.0..1.0).contains(&config.alpha) || config.alpha <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "alpha",
            message: format!("must lie in (0, 1), got {}", config.alpha),
        });
    }
    let n = g.num_vertices();
    if n == 0 {
        return Ok(CliqueMisOutcome {
            mis: IndependentSet::empty(0),
            prefix_phases: 0,
            local_rounds: 0,
            trace: mmvc_substrate::ExecutionTrace::new(),
        });
    }
    let exec = config.executor.clone().ensure_scratch();
    let pool = exec
        .scratch()
        .expect("ensure_scratch installs a pool")
        .clone();
    let telemetry = exec.telemetry();
    let mut net = CliqueNetwork::new(n)?;
    net.set_telemetry(telemetry);
    const LEADER: usize = 0;

    // Step 1: agree on the random order. Player 0 draws it and tells each
    // player its position (one word per player, one routing instance);
    // then everyone broadcasts its position (one all-to-all word).
    // `perm` lists the vertices in rank order.
    let perm = {
        let _span = telemetry.span("mis.permutation");
        random_permutation(n, config.seed)
    };
    let tell_positions: Vec<(usize, usize, usize)> = (0..n)
        .filter(|&p| p != LEADER)
        .map(|p| (LEADER, p, 1))
        .collect();
    route_batched(&mut net, &tell_positions)?;
    net.all_to_all(1)?;

    let mut in_mis = Bitset::new_in(&pool, n);
    // `alive`: not yet decided (not in MIS, not an MIS neighbor).
    let mut alive = Bitset::new_in(&pool, n);
    alive.set_all();
    let delta = g.max_degree();
    let tau = config.sparsify.value(n);
    let mut prefix_phases = 0usize;

    if delta > tau {
        let delta_f = delta as f64;
        let mut exponent = config.alpha;
        let mut prev_rank = 0usize;
        loop {
            let rank_bound =
                (((n as f64) / delta_f.powf(exponent)).ceil() as usize).clamp(prev_rank + 1, n);
            let batch: Vec<VertexId> = (prev_rank..rank_bound)
                .map(|r| perm[r])
                .filter(|&v| alive.get(v as usize))
                .collect();

            if !batch.is_empty() {
                let in_batch = {
                    let mut mask = Bitset::new_in(&pool, n);
                    for &v in &batch {
                        mask.set(v as usize);
                    }
                    mask
                };
                // Per-player batch construction: every batch player counts
                // its in-batch residual edges (2 words per edge) and
                // addresses them to the leader. Run over fixed vertex
                // chunks and flattened in chunk order, the message list is
                // identical under any executor.
                let messages: Vec<(usize, usize, usize)> = exec
                    .run_chunked(batch.len(), PAR_CHUNK, |range| {
                        batch[range]
                            .iter()
                            .filter_map(|&v| {
                                let edge_words = 2 * g
                                    .neighbors(v)
                                    .iter()
                                    .filter(|&&u| {
                                        in_batch.get(u as usize) && alive.get(u as usize) && u > v
                                    })
                                    .count();
                                (edge_words > 0).then_some((v as usize, LEADER, edge_words))
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                in_batch.recycle(&pool);
                route_batched(&mut net, &messages)?;

                // Leader computes the greedy additions in rank order, the
                // order the batch was built in.
                for &v in &batch {
                    if !alive.get(v as usize) {
                        continue;
                    }
                    if !g.neighbors(v).iter().any(|&u| in_mis.get(u as usize)) {
                        in_mis.set(v as usize);
                    }
                }

                // Leader answers every player with one word (one routing
                // instance), then MIS members notify neighbors (one round).
                let answers: Vec<(usize, usize, usize)> = (0..n)
                    .filter(|&p| p != LEADER)
                    .map(|p| (LEADER, p, 1))
                    .collect();
                route_batched(&mut net, &answers)?;
                net.charge_rounds(1)?; // neighbor notification

                for &v in &batch {
                    if in_mis.get(v as usize) {
                        alive.clear(v as usize);
                        for &u in g.neighbors(v) {
                            alive.clear(u as usize);
                        }
                    } else {
                        alive.clear(v as usize);
                    }
                }
            }

            prefix_phases += 1;
            prev_rank = rank_bound;
            // Every player measures its residual degree; integer max over
            // fixed chunks is schedule-independent.
            let residual_degree = exec
                .run_chunked(n, PAR_CHUNK, |range| {
                    range
                        .filter(|&v| alive.get(v))
                        .map(|v| {
                            g.neighbors(v as u32)
                                .iter()
                                .filter(|&&u| alive.get(u as usize))
                                .count()
                        })
                        .max()
                        .unwrap_or(0)
                })
                .into_iter()
                .max()
                .unwrap_or(0);
            if residual_degree <= tau || prev_rank >= n {
                break;
            }
            exponent *= config.alpha;
        }
    }

    // Sparsified stage: each local round is one mark-exchange — one clique
    // round.
    let local_cfg = LocalMisConfig {
        seed: hash2(config.seed, 0x10CA1),
        max_rounds: (2.0 * (tau.max(2) as f64).log2().ceil()) as usize + 4,
        target_edges: n,
    };
    let local = ghaffari_local_mis(g, &mut in_mis, &mut alive, &local_cfg, &exec);
    net.charge_rounds(local.rounds)?;

    // Final residue (O(n) edges) to the leader, finish greedily, answer.
    let mut span = telemetry.span("mis.gather");
    let remaining = alive.count_ones();
    let messages: Vec<(usize, usize, usize)> = if remaining == 0 {
        Vec::new()
    } else {
        exec.run_chunked(n, PAR_CHUNK, |range| {
            range
                .filter(|&v| alive.get(v))
                .filter_map(|v| {
                    let words = 2 * g
                        .forward_neighbors(v as u32)
                        .iter()
                        .filter(|&&u| alive.get(u as usize))
                        .count();
                    (words > 0).then_some((v, LEADER, words))
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    span.arg("remaining", remaining as u64);
    span.arg(
        "words",
        messages.iter().map(|&(_, _, w)| w as u64).sum::<u64>(),
    );
    if remaining > 0 {
        route_batched(&mut net, &messages)?;
        // Walking π and skipping decided vertices visits the residue in
        // rank order.
        for &v in perm.iter().filter(|&&v| alive.get(v as usize)) {
            if !g.neighbors(v).iter().any(|&u| in_mis.get(u as usize)) {
                in_mis.set(v as usize);
            }
        }
        let answers: Vec<(usize, usize, usize)> = (0..n)
            .filter(|&p| p != LEADER)
            .map(|p| (LEADER, p, 1))
            .collect();
        route_batched(&mut net, &answers)?;
    }
    drop(span);

    let members: Vec<VertexId> = in_mis.iter_ones().map(|v| v as VertexId).collect();
    alive.recycle(&pool);
    in_mis.recycle(&pool);
    let mis =
        IndependentSet::new(g, members).expect("greedy construction yields an independent set");
    debug_assert!(mis.is_maximal(g));

    Ok(CliqueMisOutcome {
        mis,
        prefix_phases,
        local_rounds: local.rounds,
        trace: net.execution_trace().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;

    #[test]
    fn mis_valid_on_many_graphs() {
        for seed in 0..4u64 {
            for g in [
                generators::gnp(200, 0.1, seed).unwrap(),
                generators::gnp(100, 0.4, seed).unwrap(),
                generators::power_law(150, 2.5, 10.0, seed).unwrap(),
                generators::cycle(63),
                generators::star(80),
            ] {
                let out = clique_mis(&g, &CliqueMisConfig::new(seed)).unwrap();
                assert!(out.mis.is_independent(&g), "seed {seed}");
                assert!(out.mis.is_maximal(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn rounds_are_modest() {
        // O(log log Δ) with simulator constants: comfortably under 100 for
        // these sizes.
        let g = generators::gnp(512, 0.1, 1).unwrap();
        let out = clique_mis(&g, &CliqueMisConfig::new(1)).unwrap();
        assert!(out.trace.rounds() < 100, "rounds = {}", out.trace.rounds());
        assert!(out.trace.rounds() >= 3, "at least setup + one phase");
    }

    #[test]
    fn lenzen_precondition_never_violated() {
        // max_load_words <= n per routing call is enforced internally;
        // success of the run certifies it.
        let g = generators::gnp(300, 0.3, 2).unwrap();
        let out = clique_mis(&g, &CliqueMisConfig::new(2)).unwrap();
        assert!(out.trace.max_load_words() <= 300);
    }

    #[test]
    fn empty_graph() {
        let g = mmvc_graph::Graph::empty(0);
        let out = clique_mis(&g, &CliqueMisConfig::new(0)).unwrap();
        assert_eq!(out.trace.rounds(), 0);
        assert!(out.mis.is_empty());
    }

    #[test]
    fn edgeless_graph_all_join() {
        let g = mmvc_graph::Graph::empty(10);
        let out = clique_mis(&g, &CliqueMisConfig::new(0)).unwrap();
        assert_eq!(out.mis.len(), 10);
    }

    #[test]
    fn agrees_with_mpc_variant_on_prefix_structure() {
        // Same permutation seed: both variants simulate the same greedy
        // prefix process, so the phase counts match (the sparsified tails
        // may stop at different residual sizes, so member sets can differ).
        let g = generators::gnp(400, 0.15, 3).unwrap();
        let c = clique_mis(&g, &CliqueMisConfig::new(5)).unwrap();
        let m = crate::mis::greedy_mpc_mis(&g, &crate::mis::GreedyMisConfig::new(5)).unwrap();
        assert_eq!(c.prefix_phases, m.prefix_phases);
        assert!(c.mis.is_maximal(&g) && m.mis.is_maximal(&g));
    }

    #[test]
    fn rejects_bad_alpha() {
        let g = generators::path(4);
        let mut cfg = CliqueMisConfig::new(0);
        cfg.alpha = 0.0;
        assert!(matches!(
            clique_mis(&g, &cfg),
            Err(CoreError::InvalidParameter { name: "alpha", .. })
        ));
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(200, 0.1, 6).unwrap();
        let a = clique_mis(&g, &CliqueMisConfig::new(7)).unwrap();
        let b = clique_mis(&g, &CliqueMisConfig::new(7)).unwrap();
        assert_eq!(a.mis.members(), b.mis.members());
        assert_eq!(a.trace.rounds(), b.trace.rounds());
    }
}

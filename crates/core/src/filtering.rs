//! Maximal matching by edge filtering, after Lattanzi–Moseley–Suri–
//! Vassilvitskii \[LMSV11\].
//!
//! The paper invokes this algorithm in Section 4.4.5 to handle graphs whose
//! maximum matching is small (`O(log¹⁰ n)`): with `Θ(n)` memory per
//! machine, repeatedly sample a machine-sized set of edges, compute a
//! maximal matching of the sample on one machine, discard matched vertices
//! — the number of surviving edges halves per round w.h.p. (their
//! Lemma 3.2), so `O(log n)` rounds always suffice and `O(log log n)`
//! rounds suffice once the edge count is polynomially close to `n`.
//!
//! It also serves as the per-weight-class maximal matching subroutine of
//! the Corollary 1.4 weighted algorithm, and as a baseline in the round
//! comparison experiment (E7).

use crate::error::CoreError;
use crate::PAR_CHUNK;
use mmvc_graph::matching::Matching;
use mmvc_graph::Graph;
use mmvc_substrate::mpc::{Cluster, MpcConfig};
use mmvc_substrate::{Bitset, ExecutorConfig, Substrate};

/// Configuration for [`filtering_maximal_matching`].
#[derive(Debug, Clone, PartialEq)]
pub struct FilteringConfig {
    /// Seed for the per-round edge sampling.
    pub seed: u64,
    /// Per-machine memory is `space_factor · n` words.
    pub space_factor: f64,
    /// How per-machine local work executes (results are identical for any
    /// executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

impl FilteringConfig {
    /// Default configuration: `8n` words per machine, threaded executor.
    pub fn new(seed: u64) -> Self {
        FilteringConfig {
            seed,
            space_factor: 8.0,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Output of [`filtering_maximal_matching`].
#[derive(Debug, Clone)]
pub struct FilteringOutcome {
    /// The maximal matching.
    pub matching: Matching,
    /// Filtering iterations executed (excluding the final gather).
    pub filter_rounds: usize,
    /// The metered MPC execution.
    pub trace: mmvc_substrate::ExecutionTrace,
}

/// Computes a maximal matching with the \[LMSV11\] filtering algorithm
/// under `Θ(n)` words of memory per machine.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a non-positive `space_factor`.
/// * [`CoreError::Substrate`] if an unexpected sampling deviation
///   overflows the machine budget (probability vanishing in the budget
///   slack).
///
/// # Examples
///
/// ```
/// use mmvc_core::filtering::{filtering_maximal_matching, FilteringConfig};
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(300, 0.1, 1)?;
/// let out = filtering_maximal_matching(&g, &FilteringConfig::new(7))?;
/// assert!(out.matching.is_maximal(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn filtering_maximal_matching(
    g: &Graph,
    config: &FilteringConfig,
) -> Result<FilteringOutcome, CoreError> {
    if !config.space_factor.is_finite() || config.space_factor <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "space_factor",
            message: format!("must be positive, got {}", config.space_factor),
        });
    }
    let n = g.num_vertices();
    let budget = ((config.space_factor * n.max(1) as f64).ceil() as usize).max(64);
    let machines = (4 * g.edge_words()).div_ceil(budget).max(2);
    let exec = config.executor.clone().ensure_scratch();
    let pool = exec
        .scratch()
        .expect("ensure_scratch installs a pool")
        .clone();
    let mut cluster = Cluster::new(MpcConfig::new(machines, budget)?);
    cluster.set_telemetry(exec.telemetry());

    let mut matching = Matching::empty(n);
    // Word-packed covered-vertex mask mirroring `matching.covers`: the
    // drop-edge scan below probes two endpoints per surviving edge, so a
    // 1-bit-per-vertex mask replaces the 8-byte mate-array probes.
    let mut covered = Bitset::new_in(&pool, n);
    // Surviving edge indices (both endpoints unmatched).
    // Surviving edges as `(index, u, v)`: the index is the stateless
    // sampling identity (it feeds `hash3`, so the sampled set is pinned),
    // the endpoints are decoded from the edge view once, here — the
    // per-round passes below then touch them in O(1) instead of
    // re-deriving them from the CSR arrays per probe.
    let mut alive: Vec<(u32, u32, u32)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| (i as u32, e.u(), e.v()))
        .collect();
    let mut filter_rounds = 0usize;
    // O(log m) rounds always suffice (edges halve w.h.p.); the cap guards
    // against adversarially unlucky sampling.
    let cap = 4 * (g.num_edges().max(2) as f64).log2().ceil() as usize + 8;

    while 2 * alive.len() > budget && filter_rounds < cap {
        // Sample each surviving edge with probability p = budget/(4·words)
        // so the expected sample size is budget/4 words — w.h.p. within
        // budget.
        let p = budget as f64 / (4.0 * 2.0 * alive.len() as f64);
        // Per-machine local work: every machine samples its share of the
        // surviving edges with the stateless per-edge hash. Flattening the
        // fixed chunks in order reproduces the sequential sample exactly.
        let sample: Vec<(u32, u32, u32)> = exec
            .run_chunked(alive.len(), PAR_CHUNK, |range| {
                alive[range]
                    .iter()
                    .copied()
                    .filter(|&(ei, _, _)| {
                        mmvc_graph::rng::hash3_unit(config.seed, filter_rounds as u64, ei as u64)
                            < p
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // One MPC round: machine 0 receives the sampled edges.
        cluster.round(|r| r.receive(0, 2 * sample.len()))?;

        // Machine 0: greedy maximal matching on the sample, restricted to
        // currently unmatched vertices (all sampled edges qualify since
        // `alive` was filtered already).
        let mut local = Matching::empty(n);
        for &(_, u, v) in &sample {
            local.try_add(u, v);
        }

        // One MPC round: broadcast newly matched vertices.
        let newly = 2 * local.len();
        cluster.round(|r| r.broadcast(newly.min(budget)))?;
        let added = matching.absorb(&local);
        // Every sampled edge had both endpoints uncovered (alive was
        // filtered last round), so the absorb adds all of `local`.
        debug_assert_eq!(added, local.len());
        for e in local.edges() {
            covered.set(e.u() as usize);
            covered.set(e.v() as usize);
        }

        // Drop edges with a matched endpoint (same chunked filter).
        alive = exec
            .run_chunked(alive.len(), PAR_CHUNK, |range| {
                alive[range]
                    .iter()
                    .copied()
                    .filter(|&(_, u, v)| !covered.get(u as usize) && !covered.get(v as usize))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        filter_rounds += 1;
    }
    covered.recycle(&pool);

    // Final gather: the remaining graph fits on one machine.
    if !alive.is_empty() {
        cluster.round(|r| r.receive(0, 2 * alive.len()))?;
        for &(_, u, v) in &alive {
            matching.try_add(u, v);
        }
    }

    debug_assert!(matching.is_maximal(g));
    Ok(FilteringOutcome {
        matching,
        filter_rounds,
        trace: cluster.execution_trace().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;

    #[test]
    fn maximal_on_assorted_graphs() {
        for seed in 0..5u64 {
            for g in [
                generators::gnp(300, 0.05, seed).unwrap(),
                generators::gnp(100, 0.5, seed).unwrap(),
                generators::power_law(200, 2.3, 8.0, seed).unwrap(),
                generators::star(50),
                generators::cycle(33),
            ] {
                let out = filtering_maximal_matching(&g, &FilteringConfig::new(seed)).unwrap();
                assert!(out.matching.is_maximal(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = mmvc_graph::Graph::empty(10);
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(0)).unwrap();
        assert!(out.matching.is_empty());
        assert_eq!(out.filter_rounds, 0);
    }

    #[test]
    fn small_graph_single_gather() {
        // Fits on one machine: zero filter rounds, one gather round.
        let g = generators::gnp(50, 0.1, 1).unwrap();
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(1)).unwrap();
        assert_eq!(out.filter_rounds, 0);
        assert_eq!(out.trace.rounds(), 1);
    }

    #[test]
    fn dense_graph_uses_filtering() {
        // n=400, p=0.5: ~40k edges >> 8n/2 = 1600 edge budget.
        let g = generators::gnp(400, 0.5, 2).unwrap();
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(2)).unwrap();
        assert!(out.filter_rounds >= 1, "expected filtering rounds");
        assert!(out.matching.is_maximal(&g));
        // Memory budget respected throughout (would have errored otherwise).
        assert!(out.trace.max_load_words() <= 8 * 400);
    }

    #[test]
    fn rounds_logarithmic_ish() {
        // Edge halving => filter rounds ~ log(E/S).
        let g = generators::gnp(500, 0.4, 3).unwrap();
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(3)).unwrap();
        assert!(
            out.filter_rounds <= 30,
            "too many filter rounds: {}",
            out.filter_rounds
        );
    }

    #[test]
    fn half_approximation() {
        let g = generators::gnp(200, 0.1, 4).unwrap();
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(4)).unwrap();
        let opt = mmvc_graph::matching::blossom(&g).len();
        assert!(2 * out.matching.len() >= opt);
    }

    #[test]
    fn rejects_bad_space_factor() {
        let g = generators::path(3);
        let cfg = FilteringConfig {
            space_factor: -1.0,
            ..FilteringConfig::new(0)
        };
        assert!(matches!(
            filtering_maximal_matching(&g, &cfg),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(300, 0.2, 5).unwrap();
        let a = filtering_maximal_matching(&g, &FilteringConfig::new(9)).unwrap();
        let b = filtering_maximal_matching(&g, &FilteringConfig::new(9)).unwrap();
        assert_eq!(a.matching.edges(), b.matching.edges());
    }
}

//! `(2+ε)`-approximate maximum **weighted** matching (paper,
//! Corollary 1.4).
//!
//! The corollary invokes the reduction of Lotker, Patt-Shamir, and Rosén
//! \[LPSR09\]: bucket edges into geometric weight classes
//! `[(1+ε)^k, (1+ε)^{k+1})` and combine per-class *unweighted* matchings.
//! We implement the sequential heaviest-class-first form of the reduction:
//! for each class, in decreasing weight order, compute a maximal matching
//! among still-free vertices and keep it.
//!
//! **Approximation.** For any optimum edge `e`, when its class is
//! processed either `e` joins the matching or an endpoint of `e` is
//! already matched by an edge of weight at least `w_e/(1+ε)` (same or
//! heavier class). Charging each optimum edge to that blocking matched
//! edge, and noting each matched edge absorbs at most two charges, yields
//! `OPT ≤ 2(1+ε)·W(M)` — the `(2+ε)` guarantee.
//!
//! **Rounds.** Per class we run the \[LMSV11\] filtering maximal matching
//! (`Θ(n)` memory); the paper's `O(log log n · 1/ε)` bound comes from
//! running the `O(log log n)`-round unweighted algorithm per class with
//! the classes pipelined; the simulation reports the measured sequential
//! rounds alongside.

use crate::epsilon::Epsilon;
use crate::error::CoreError;
use crate::filtering::{filtering_maximal_matching, FilteringConfig};
use mmvc_graph::matching::Matching;
use mmvc_graph::rng::hash2;
use mmvc_graph::weighted::WeightedGraph;
use mmvc_graph::Graph;
use mmvc_substrate::ExecutorConfig;

/// Configuration for [`weighted_matching`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMatchingConfig {
    /// Approximation parameter `ε`.
    pub eps: Epsilon,
    /// Seed for the per-class subroutine.
    pub seed: u64,
    /// How the per-class subroutine's scans execute (results are identical
    /// for any executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

impl WeightedMatchingConfig {
    /// Default configuration (threaded executor).
    pub fn new(eps: Epsilon, seed: u64) -> Self {
        WeightedMatchingConfig {
            eps,
            seed,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Output of [`weighted_matching`].
#[derive(Debug, Clone)]
pub struct WeightedMatchingOutcome {
    /// The matching.
    pub matching: Matching,
    /// Its total weight.
    pub total_weight: f64,
    /// Number of non-empty weight classes processed.
    pub classes: usize,
    /// Total MPC rounds across the per-class subroutines.
    pub total_rounds: usize,
}

/// Computes a `(2+ε)`-approximate maximum weighted matching (paper,
/// Corollary 1.4) via geometric weight classes.
///
/// # Errors
///
/// Propagates [`CoreError`] from the per-class maximal-matching
/// subroutine.
///
/// # Examples
///
/// ```
/// use mmvc_core::matching::{weighted_matching, WeightedMatchingConfig};
/// use mmvc_core::Epsilon;
/// use mmvc_graph::{generators, weighted::WeightedGraph};
///
/// let g = generators::gnp(60, 0.1, 1)?;
/// let wg = WeightedGraph::with_random_weights(g, 1.0, 100.0, 2)?;
/// let out = weighted_matching(&wg, &WeightedMatchingConfig::new(Epsilon::new(0.1)?, 3))?;
/// assert!(out.total_weight > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn weighted_matching(
    wg: &WeightedGraph,
    config: &WeightedMatchingConfig,
) -> Result<WeightedMatchingOutcome, CoreError> {
    let g = wg.graph();
    let n = g.num_vertices();
    let mut matching = Matching::empty(n);
    if g.num_edges() == 0 {
        return Ok(WeightedMatchingOutcome {
            matching,
            total_weight: 0.0,
            classes: 0,
            total_rounds: 0,
        });
    }

    // Class of an edge: floor(log_{1+ε} w).
    let base = (1.0 + config.eps.get()).ln();
    let class_of = |w: f64| -> i64 { (w.ln() / base).floor() as i64 };

    // Group edge endpoints by class (decoded from the edge view once,
    // here), heaviest class first.
    let mut classes: std::collections::BTreeMap<i64, Vec<(u32, u32)>> =
        std::collections::BTreeMap::new();
    for (i, e) in g.edges().iter().enumerate() {
        classes
            .entry(class_of(wg.weight(i)))
            .or_default()
            .push((e.u(), e.v()));
    }

    let mut total_rounds = 0usize;
    let mut class_count = 0usize;
    for (rank, (_, class_edges)) in classes.iter().rev().enumerate() {
        // Restrict the class to edges between still-free vertices.
        let pairs: Vec<(u32, u32)> = class_edges
            .iter()
            .copied()
            .filter(|&(u, v)| !matching.covers(u) && !matching.covers(v))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        class_count += 1;
        let class_graph = Graph::from_edges(n, pairs)?;
        let mut class_cfg = FilteringConfig::new(hash2(config.seed, rank as u64));
        class_cfg.executor = config.executor.clone();
        let sub = filtering_maximal_matching(&class_graph, &class_cfg)?;
        total_rounds += sub.trace.rounds();
        matching.absorb(&sub.matching);
    }

    let total_weight = wg.matching_weight(&matching);
    Ok(WeightedMatchingOutcome {
        matching,
        total_weight,
        classes: class_count,
        total_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;

    fn cfg(seed: u64) -> WeightedMatchingConfig {
        WeightedMatchingConfig::new(Epsilon::new(0.1).unwrap(), seed)
    }

    #[test]
    fn valid_matching_output() {
        let g = generators::gnp(80, 0.1, 1).unwrap();
        let wg = WeightedGraph::with_random_weights(g.clone(), 1.0, 50.0, 2).unwrap();
        let out = weighted_matching(&wg, &cfg(3)).unwrap();
        for e in out.matching.edges() {
            assert!(g.has_edge(e.u(), e.v()));
        }
        let recomputed = wg.matching_weight(&out.matching);
        assert!((out.total_weight - recomputed).abs() < 1e-9);
    }

    #[test]
    fn two_plus_eps_vs_brute_force_on_tiny_graphs() {
        // 2(1+ε) guarantee checked against the exact optimum.
        for seed in 0..20u64 {
            let g = generators::gnp(8, 0.5, seed).unwrap();
            if g.num_edges() > 20 || g.num_edges() == 0 {
                continue;
            }
            let wg = WeightedGraph::with_random_weights(g, 1.0, 100.0, seed).unwrap();
            let out = weighted_matching(&wg, &cfg(seed)).unwrap();
            let opt = wg.brute_force_max_weight_matching();
            assert!(
                out.total_weight * 2.0 * 1.1 + 1e-9 >= opt,
                "seed {seed}: got {} vs opt {opt}",
                out.total_weight
            );
        }
    }

    #[test]
    fn prefers_heavy_edge_over_two_light() {
        // Path a-b-c-d with middle edge weight 100, sides weight 1: optimum
        // is {sides} = 2 only if 2 > 100 — no: optimum is the middle (100)
        // vs sides (2). Heaviest-first must take the middle edge.
        let g = generators::path(4);
        let wg = WeightedGraph::new(g, vec![1.0, 100.0, 1.0]).unwrap();
        let out = weighted_matching(&wg, &cfg(1)).unwrap();
        assert!(out.total_weight >= 100.0);
    }

    #[test]
    fn uniform_weights_degenerate_to_maximal() {
        let g = generators::gnp(60, 0.1, 4).unwrap();
        let wg = WeightedGraph::with_random_weights(g.clone(), 2.0, 2.0, 0).unwrap();
        let out = weighted_matching(&wg, &cfg(5)).unwrap();
        assert_eq!(out.classes, 1);
        assert!(
            out.matching.is_maximal(&g),
            "single class => maximal matching"
        );
    }

    #[test]
    fn empty_graph() {
        let g = mmvc_graph::Graph::empty(5);
        let wg = WeightedGraph::new(g, vec![]).unwrap();
        let out = weighted_matching(&wg, &cfg(0)).unwrap();
        assert_eq!(out.total_weight, 0.0);
        assert_eq!(out.classes, 0);
    }

    #[test]
    fn class_count_scales_with_weight_range() {
        let g = generators::gnp(100, 0.1, 6).unwrap();
        let narrow = WeightedGraph::with_random_weights(g.clone(), 1.0, 2.0, 1).unwrap();
        let wide = WeightedGraph::with_random_weights(g, 1.0, 10_000.0, 1).unwrap();
        let c_narrow = weighted_matching(&narrow, &cfg(7)).unwrap().classes;
        let c_wide = weighted_matching(&wide, &cfg(7)).unwrap().classes;
        assert!(c_wide > c_narrow);
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(70, 0.15, 8).unwrap();
        let wg = WeightedGraph::with_random_weights(g, 1.0, 30.0, 9).unwrap();
        let a = weighted_matching(&wg, &cfg(10)).unwrap();
        let b = weighted_matching(&wg, &cfg(10)).unwrap();
        assert_eq!(a.matching.edges(), b.matching.edges());
    }
}

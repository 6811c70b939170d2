//! The `Central` and `Central-Rand` algorithms (paper, Sections 4.1 and
//! 4.3): the `O(log n)`-iteration sequential process that produces a
//! `(2+5ε)`-approximate fractional maximum matching and integral minimum
//! vertex cover (Lemma 4.1).
//!
//! Both variants share one engine differing only in the freezing threshold:
//!
//! * `Central` — fixed threshold `1 − 2ε`;
//! * `Central-Rand` — per-vertex, per-iteration threshold
//!   `T(v,t) ~ U[1−4ε, 1−2ε]`, drawn statelessly from a seed so that the
//!   distributed simulation can observe the *same* thresholds (Section
//!   4.4.3).

use crate::epsilon::Epsilon;
use crate::matching::fractional::FractionalMatching;
use mmvc_graph::rng::hash3_unit;
use mmvc_graph::vertex_cover::VertexCover;
use mmvc_graph::{Graph, VertexId};

/// Sentinel freeze iteration for "never frozen" (isolated vertices).
pub const NEVER_FROZEN: u32 = u32::MAX;

/// How freezing thresholds are chosen per vertex and iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdRule {
    /// The deterministic threshold `1 − 2ε` of `Central` (Section 4.1).
    Fixed,
    /// The randomized thresholds `T(v,t) ~ U[1−4ε, 1−2ε]` of
    /// `Central-Rand` (Section 4.3), derived statelessly from the seed.
    Random {
        /// Seed from which all thresholds are derived.
        seed: u64,
    },
}

impl ThresholdRule {
    /// The threshold for vertex `v` at iteration `t`.
    pub fn threshold(&self, eps: Epsilon, v: VertexId, t: u32) -> f64 {
        let e = eps.get();
        match self {
            ThresholdRule::Fixed => 1.0 - 2.0 * e,
            ThresholdRule::Random { seed } => {
                // Uniform in [1-4ε, 1-2ε].
                1.0 - 4.0 * e + 2.0 * e * hash3_unit(*seed, v as u64, t as u64)
            }
        }
    }

    /// The smallest threshold this rule can produce — below it no vertex
    /// can freeze, which is what makes iterations fast-forwardable.
    pub fn min_threshold(&self, eps: Epsilon) -> f64 {
        match self {
            ThresholdRule::Fixed => 1.0 - 2.0 * eps.get(),
            ThresholdRule::Random { .. } => 1.0 - 4.0 * eps.get(),
        }
    }
}

/// Configuration of the centralized algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralConfig {
    /// Approximation parameter.
    pub eps: Epsilon,
    /// Threshold rule (fixed = `Central`, random = `Central-Rand`).
    pub thresholds: ThresholdRule,
    /// Initial edge weight `w₀`; defaults to `1/n` (Section 4.1). The MPC
    /// simulation couples against a run with `w₀ = (1−2ε)/n` (Section 4.3).
    pub initial_weight: Option<f64>,
}

impl CentralConfig {
    /// `Central` with threshold `1 − 2ε` and `w₀ = 1/n`.
    pub fn fixed(eps: Epsilon) -> Self {
        CentralConfig {
            eps,
            thresholds: ThresholdRule::Fixed,
            initial_weight: None,
        }
    }

    /// `Central-Rand` with `T(v,t) ~ U[1−4ε, 1−2ε]` and `w₀ = 1/n`.
    pub fn random(eps: Epsilon, seed: u64) -> Self {
        CentralConfig {
            eps,
            thresholds: ThresholdRule::Random { seed },
            initial_weight: None,
        }
    }
}

/// Output of the centralized algorithm.
#[derive(Debug, Clone)]
pub struct CentralOutcome {
    /// The fractional matching `x` (Lemma 4.1(B): weight within `(2+5ε)`
    /// of the maximum matching).
    pub fractional: FractionalMatching,
    /// The vertex cover of frozen vertices (Lemma 4.1(A): within `(2+5ε)`
    /// of the minimum vertex cover).
    pub cover: VertexCover,
    /// Iterations executed until every edge was frozen.
    pub iterations: usize,
    /// Per-vertex freeze iteration ([`NEVER_FROZEN`] for vertices that
    /// never froze, i.e. isolated ones). Iteration `t` means the vertex
    /// froze during iteration `t`, with its edges at weight `w₀/(1−ε)^t`.
    pub freeze_iteration: Vec<u32>,
}

/// Runs the centralized fractional-matching / vertex-cover algorithm
/// (paper, Sections 4.1 / 4.3) to completion.
///
/// Iterates "(A) freeze vertices whose load reached their threshold, then
/// (B) multiply active edge weights by `1/(1−ε)`" until every edge is
/// frozen, which takes `O(log n / ε)` iterations (Lemma 4.1).
///
/// # Panics
///
/// Panics if `config.initial_weight` is non-positive or not finite.
///
/// # Examples
///
/// ```
/// use mmvc_core::matching::{run_central, CentralConfig};
/// use mmvc_core::Epsilon;
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(100, 0.1, 1)?;
/// let out = run_central(&g, &CentralConfig::fixed(Epsilon::new(0.1)?));
/// assert!(out.cover.covers(&g));
/// assert!(out.fractional.is_feasible(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_central(g: &Graph, config: &CentralConfig) -> CentralOutcome {
    let n = g.num_vertices();
    let m = g.num_edges();
    let eps = config.eps;
    let w0 = config.initial_weight.unwrap_or(1.0 / n.max(1) as f64);
    assert!(
        w0.is_finite() && w0 > 0.0,
        "initial weight must be positive, got {w0}"
    );

    let mut freeze_iteration = vec![NEVER_FROZEN; n];
    if m == 0 {
        return CentralOutcome {
            fractional: FractionalMatching::zero(g),
            cover: VertexCover::from_mask_unchecked(vec![false; n]),
            iterations: 0,
            freeze_iteration,
        };
    }

    let growth = eps.growth_factor();
    let mut x: Vec<f64> = vec![w0; m];
    let mut frozen = vec![false; n];
    let mut active_edges = m;
    // Safety cap: weights reach 1 within this many iterations, after which
    // every edge must freeze; the +2 covers boundary iterations.
    let cap = eps.iterations_to_grow(w0, 1.0).saturating_add(2);

    let mut t: u32 = 0;
    let mut iterations = 0usize;
    while active_edges > 0 && iterations < cap {
        // y_v over all incident edges (frozen edges keep contributing their
        // final weight, exactly as in the paper).
        let mut y = vec![0.0f64; n];
        for (i, e) in g.edges().iter().enumerate() {
            y[e.u() as usize] += x[i];
            y[e.v() as usize] += x[i];
        }
        // (A) freeze vertices whose load reached their threshold.
        for v in 0..n {
            if !frozen[v] && y[v] >= config.thresholds.threshold(eps, v as u32, t) {
                frozen[v] = true;
                freeze_iteration[v] = t;
            }
        }
        // (B) grow the weight of edges that remain active.
        active_edges = 0;
        for (i, e) in g.edges().iter().enumerate() {
            if !frozen[e.u() as usize] && !frozen[e.v() as usize] {
                x[i] *= growth;
                active_edges += 1;
            }
        }
        t += 1;
        iterations += 1;
    }
    debug_assert_eq!(
        active_edges, 0,
        "Central must terminate with all edges frozen"
    );

    let fractional =
        FractionalMatching::new(g, x).expect("Central maintains y_v <= 1 by construction");
    let cover = VertexCover::from_mask_unchecked(frozen);
    CentralOutcome {
        fractional,
        cover,
        iterations,
        freeze_iteration,
    }
}

/// Convenience wrapper: `Central` (fixed thresholds).
pub fn central(g: &Graph, eps: Epsilon) -> CentralOutcome {
    run_central(g, &CentralConfig::fixed(eps))
}

/// Convenience wrapper: `Central-Rand` (random thresholds).
pub fn central_rand(g: &Graph, eps: Epsilon, seed: u64) -> CentralOutcome {
    run_central(g, &CentralConfig::random(eps, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::{generators, matching};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn thresholds_in_range() {
        let e = eps(0.1);
        assert_eq!(ThresholdRule::Fixed.threshold(e, 0, 0), 0.8);
        let rule = ThresholdRule::Random { seed: 3 };
        for v in 0..50u32 {
            for t in 0..20u32 {
                let th = rule.threshold(e, v, t);
                assert!((0.6..=0.8).contains(&th), "T({v},{t}) = {th}");
            }
        }
    }

    #[test]
    fn random_thresholds_vary_per_vertex_and_iteration() {
        let e = eps(0.1);
        let rule = ThresholdRule::Random { seed: 9 };
        assert_ne!(rule.threshold(e, 0, 0), rule.threshold(e, 1, 0));
        assert_ne!(rule.threshold(e, 0, 0), rule.threshold(e, 0, 1));
        // Same inputs -> same threshold (stateless determinism).
        assert_eq!(rule.threshold(e, 5, 7), rule.threshold(e, 5, 7));
    }

    #[test]
    fn empty_graph_trivial() {
        let g = Graph::empty(5);
        let out = central(&g, eps(0.1));
        assert_eq!(out.iterations, 0);
        assert_eq!(out.cover.len(), 0);
        assert_eq!(out.fractional.weight(), 0.0);
        assert!(out.freeze_iteration.iter().all(|&f| f == NEVER_FROZEN));
    }

    #[test]
    fn single_edge_freezes_both_endpoints() {
        let g = generators::path(2);
        let out = central(&g, eps(0.1));
        assert!(out.cover.covers(&g));
        assert!(out.iterations > 0);
        // Both endpoints see the same load, so they freeze together.
        assert_eq!(out.freeze_iteration[0], out.freeze_iteration[1]);
        // Weight of the single edge is close to (but below) 1.
        let w = out.fractional.edge_weight(0);
        assert!(w >= 1.0 - 2.0 * 0.1 - 1e-9, "w = {w}");
        assert!(w <= 1.0);
    }

    #[test]
    fn iteration_count_logarithmic() {
        let e = eps(0.1);
        for n in [100usize, 1000, 10000] {
            let g = generators::disjoint_edges(n / 2);
            let out = central(&g, e);
            let bound = e.iterations_to_grow(1.0 / n as f64, 1.0) + 2;
            assert!(
                out.iterations <= bound,
                "n={n}: {} > {bound}",
                out.iterations
            );
            // And the count grows ~ log n: crude monotonicity check below.
        }
        // log n scaling: 100x vertices ≈ +log(100)/log(1/(1-ε)) iterations.
        let i1 = central(&generators::disjoint_edges(50), e).iterations;
        let i2 = central(&generators::disjoint_edges(5000), e).iterations;
        assert!(i2 > i1);
        assert!(
            (i2 - i1) < 60,
            "difference should be ~ log(100)/log(10/9) ≈ 44"
        );
    }

    #[test]
    fn cover_and_feasibility_invariants() {
        for seed in 0..5u64 {
            for g in [
                generators::gnp(80, 0.1, seed).unwrap(),
                generators::power_law(80, 2.5, 6.0, seed).unwrap(),
                generators::complete(20),
                generators::star(30),
            ] {
                for rule_seed in [None, Some(seed)] {
                    let out = match rule_seed {
                        None => central(&g, eps(0.1)),
                        Some(s) => central_rand(&g, eps(0.1), s),
                    };
                    assert!(out.cover.covers(&g), "cover invalid (seed {seed})");
                    assert!(out.fractional.is_feasible(&g), "y_v > 1 (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn lemma_4_1_approximation_bounds() {
        // |C| <= (2+5ε)·VC* and Σx >= |M*|/(2+5ε), measured against exact
        // optima via blossom (|M*| <= VC* <= 2|M*|).
        let e = eps(0.1);
        let factor = 2.0 + 5.0 * 0.1;
        for seed in 0..8u64 {
            let g = generators::gnp(60, 0.12, seed).unwrap();
            let out = central(&g, e);
            let mm = matching::blossom(&g).len() as f64;
            if mm == 0.0 {
                continue;
            }
            // Fractional matching at least |M*|/(2+5ε).
            assert!(
                out.fractional.weight() >= mm / factor - 1e-9,
                "seed {seed}: weight {} < {}",
                out.fractional.weight(),
                mm / factor
            );
            // Cover within (2+5ε) of minimum VC; VC* >= |M*| gives the
            // checkable relaxation |C| <= (2+5ε)·VC* from |C| <= 2(1+5ε)Wм
            // and strong duality — here we check the weaker measurable form
            // |C| <= (2+5ε)·(2·|M*|) only loosely and the tight dual bound:
            assert!(
                (out.cover.len() as f64) <= factor * 2.0 * mm + 1e-9,
                "seed {seed}: cover {} vs 2(2+5ε)|M*| {}",
                out.cover.len(),
                factor * 2.0 * mm
            );
            // Dual relationship: cover >= fractional weight (weak duality).
            assert!(out.cover.len() as f64 >= out.fractional.weight() - 1e-9);
        }
    }

    #[test]
    fn central_rand_matches_central_structure() {
        // Same invariants under random thresholds. Individual vertices may
        // never freeze (all their edges frozen from the other side), but
        // every *edge* must end with a frozen endpoint.
        let g = generators::cycle(10);
        let out = central_rand(&g, eps(0.1), 42);
        for e in g.edges() {
            let fu = out.freeze_iteration[e.u() as usize];
            let fv = out.freeze_iteration[e.v() as usize];
            assert!(
                fu != NEVER_FROZEN || fv != NEVER_FROZEN,
                "edge {e:?} has no frozen endpoint"
            );
        }
        assert!(out.cover.covers(&g));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::gnp(50, 0.15, 3).unwrap();
        let a = central_rand(&g, eps(0.05), 7);
        let b = central_rand(&g, eps(0.05), 7);
        assert_eq!(a.freeze_iteration, b.freeze_iteration);
        assert_eq!(a.fractional, b.fractional);
    }

    #[test]
    fn custom_initial_weight() {
        let g = generators::path(2);
        let cfg = CentralConfig {
            eps: eps(0.1),
            thresholds: ThresholdRule::Fixed,
            initial_weight: Some(0.5),
        };
        let out = run_central(&g, &cfg);
        // From 0.5, reaching 0.8 takes ~5 growth steps (0.5·(10/9)^5 ≈ 0.81).
        assert!(out.iterations <= 6, "got {}", out.iterations);
    }

    #[test]
    #[should_panic(expected = "initial weight must be positive")]
    fn rejects_bad_initial_weight() {
        let g = generators::path(2);
        let cfg = CentralConfig {
            eps: eps(0.1),
            thresholds: ThresholdRule::Fixed,
            initial_weight: Some(0.0),
        };
        run_central(&g, &cfg);
    }
}

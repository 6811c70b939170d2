//! Integral `(2+ε)`-approximate maximum matching (paper, Theorem 1.2).
//!
//! The proof of Theorem 1.2 composes the pieces of Sections 4 and 5 into
//! the iterated algorithm `A`:
//!
//! 1. run `MPC-Simulation` on the current graph to get a fractional
//!    matching `x` and the heavy-vertex set `C̃` (weight ≥ `1 − 5ε`);
//! 2. round `x` with the Lemma 5.1 procedure, extracting an integral
//!    matching of size `Ω(|C̃|)`;
//! 3. remove matched vertices and repeat.
//!
//! Each execution of `A` captures at least a `1/150` fraction of the
//! residual maximum matching, so `log_{150/149}(1/ε)` executions leave at
//! most an `ε` fraction unmatched. Separately, the Section 4.4.5 fallback
//! (LMSV filtering) handles graphs whose maximum matching is tiny; the
//! larger of the two results is returned.

use crate::epsilon::Epsilon;
use crate::error::CoreError;
use crate::filtering::{filtering_maximal_matching, FilteringConfig};
use crate::matching::fractional::FractionalMatching;
use crate::matching::mpc_sim::{mpc_simulation, MpcMatchingConfig, MpcMatchingOutcome};
use crate::matching::rounding::round_fractional;
use mmvc_graph::matching::Matching;
use mmvc_graph::rng::hash2;
use mmvc_graph::vertex_cover::VertexCover;
use mmvc_graph::Graph;

/// Configuration for [`integral_matching`].
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralMatchingConfig {
    /// The MPC-Simulation configuration used by every extraction round.
    pub sim: MpcMatchingConfig,
    /// Upper bound on extraction iterations; `None` uses
    /// `min(24, ceil(log_{150/149}(1/ε)))` — extraction exits early anyway
    /// once the residual fractional weight certifies an `ε`-small
    /// remainder, and the leftover is absorbed by a maximal matching of
    /// the (by then small) residual graph.
    pub max_extractions: Option<usize>,
}

impl IntegralMatchingConfig {
    /// Default configuration from `(ε, seed)`.
    pub fn new(eps: Epsilon, seed: u64) -> Self {
        IntegralMatchingConfig {
            sim: MpcMatchingConfig::new(eps, seed),
            max_extractions: None,
        }
    }
}

/// Output of [`integral_matching`].
#[derive(Debug, Clone)]
pub struct IntegralMatchingOutcome {
    /// The integral matching (Theorem 1.2: within `(2+ε)` of maximum).
    pub matching: Matching,
    /// The vertex cover from the first `MPC-Simulation` run on the full
    /// graph (Theorem 1.2: within `(2+ε)` of minimum).
    pub cover: VertexCover,
    /// Extraction iterations actually executed.
    pub extractions: usize,
    /// Total MPC rounds across all simulation runs, rounding steps (one
    /// round each), and the residual fallback.
    pub total_rounds: usize,
    /// Whether the Section 4.4.5 fallback (maximal matching on the
    /// residual graph) contributed edges to the returned matching.
    pub used_fallback: bool,
}

/// Restricts a fractional matching on `old` to the edge set of `new`
/// (same vertex id space, `new.edges() ⊆ old.edges()`).
fn restrict_fractional(old: &Graph, x: &FractionalMatching, new: &Graph) -> FractionalMatching {
    let mut old_edges = old.edges().iter().enumerate();
    let mut weights = Vec::with_capacity(new.num_edges());
    for e in new.edges() {
        // Both lists are sorted; advance the old-list cursor monotonically.
        let i = old_edges
            .by_ref()
            .find(|(_, oe)| *oe == e)
            .expect("new.edges() ⊆ old.edges()")
            .0;
        weights.push(x.edge_weight(i));
    }
    FractionalMatching::new(new, weights)
        .expect("restriction of a feasible fractional matching is feasible")
}

/// Computes an integral `(2+ε)`-approximate maximum matching and a
/// `(2+ε)`-approximate vertex cover (paper, Theorem 1.2).
///
/// # Errors
///
/// Propagates [`CoreError`] from the underlying simulation (typically
/// memory-budget violations under misconfigured space factors).
///
/// # Examples
///
/// ```
/// use mmvc_core::matching::{integral_matching, IntegralMatchingConfig};
/// use mmvc_core::Epsilon;
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(200, 0.08, 1)?;
/// let out = integral_matching(&g, &IntegralMatchingConfig::new(Epsilon::new(0.1)?, 7))?;
/// assert!(out.cover.covers(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn integral_matching(
    g: &Graph,
    config: &IntegralMatchingConfig,
) -> Result<IntegralMatchingOutcome, CoreError> {
    let eps = config.sim.eps;
    let seed = config.sim.seed;
    let n = g.num_vertices();

    // Paper iteration count: log_{150/149}(1/ε). In practice each
    // extraction captures far more than the guaranteed 1/150 of the
    // residual optimum, so a couple dozen iterations plus the residual
    // fallback always suffice.
    let paper_cap = ((1.0 / eps.get()).ln() / (150.0f64 / 149.0).ln()).ceil() as usize;
    let cap = config.max_extractions.unwrap_or(paper_cap.min(24)).max(1);

    let mut matching = Matching::empty(n);
    let mut cover: Option<VertexCover> = None;
    let mut total_rounds = 0usize;
    let mut extractions = 0usize;
    let mut current = g.clone();

    while extractions < cap {
        let mut sim_cfg = config.sim.clone();
        sim_cfg.seed = hash2(seed, extractions as u64);
        let out: MpcMatchingOutcome = mpc_simulation(&current, &sim_cfg)?;
        total_rounds += out.trace.rounds();
        if cover.is_none() {
            cover = Some(out.cover.clone());
        }

        // Early exit: the residual maximum matching is at most
        // (2+50ε)·W(x); once that certifies an ε-small remainder relative
        // to what we already hold, further extraction cannot change the
        // approximation factor.
        let residual_bound = (2.0 + 50.0 * eps.get()) * out.fractional.weight();
        if residual_bound <= 1.0 || residual_bound <= eps.get() * matching.len().max(1) as f64 {
            break;
        }

        // Lemma 5.1 rounding, iterated: re-rounding the same fractional
        // matching (restricted to still-unmatched vertices) costs one MPC
        // round per repetition — far cheaper than a fresh simulation — and
        // each repetition extracts a constant fraction of the surviving
        // heavy vertices. The first repetition is exactly the paper's
        // rounding step; the rest only improve the constant.
        extractions += 1;
        let mut x = out.fractional;
        let mut candidates = out.heavy_certificate;
        let beta = 5.0 * eps.get();
        for round_idx in 0..8u64 {
            if candidates.is_empty() {
                break;
            }
            let rounded = round_fractional(
                &current,
                &x,
                &candidates,
                hash2(seed ^ 0x5151, extractions as u64 * 64 + round_idx),
            )?;
            total_rounds += 1;
            if rounded.is_empty() {
                break;
            }
            matching.absorb(&rounded);

            // Restrict graph and fractional matching to unmatched vertices.
            let keep: Vec<bool> = (0..n as u32).map(|v| !matching.covers(v)).collect();
            let next = current.induced_subgraph_mask(&keep);
            x = restrict_fractional(&current, &x, &next);
            current = next;
            candidates = x.heavy_vertices(&current, beta);
        }
        if current.is_edgeless() {
            break;
        }
    }

    // Section 4.4.5 fallback: a maximal matching of the residual graph
    // (small by now — this is also the small-matching path the paper
    // dedicates §4.4.5 to). Absorbing it makes the result maximal, so the
    // classical factor-2 bound holds unconditionally on top of the
    // extraction guarantee.
    let mut fallback_cfg = FilteringConfig::new(seed ^ 0xFA11);
    fallback_cfg.executor = config.sim.executor.clone();
    let fallback = filtering_maximal_matching(&current, &fallback_cfg)?;
    total_rounds += fallback.trace.rounds();
    let absorbed = matching.absorb(&fallback.matching);
    let used_fallback = absorbed > 0;
    debug_assert!(matching.is_maximal(g));

    let cover = cover.unwrap_or_else(|| {
        // cap >= 1 guarantees at least one simulation ran; this arm only
        // serves the defensive default for an empty loop.
        VertexCover::from_mask_unchecked(vec![false; n])
    });

    Ok(IntegralMatchingOutcome {
        matching,
        cover,
        extractions,
        total_rounds,
        used_fallback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::{generators, matching as gm};

    fn cfg(seed: u64) -> IntegralMatchingConfig {
        IntegralMatchingConfig::new(Epsilon::new(0.1).unwrap(), seed)
    }

    #[test]
    fn matching_is_valid() {
        for seed in 0..5u64 {
            let g = generators::gnp(150, 0.08, seed).unwrap();
            let out = integral_matching(&g, &cfg(seed)).unwrap();
            for e in out.matching.edges() {
                assert!(g.has_edge(e.u(), e.v()), "seed {seed}");
            }
        }
    }

    #[test]
    fn two_plus_eps_approximation() {
        // Theorem 1.2 guarantee, measured against the blossom optimum. The
        // theoretical factor is 2+ε; the fallback (maximal matching) alone
        // guarantees 2, so we assert the 2+ε bound outright.
        for seed in 0..6u64 {
            let g = generators::gnp(200, 0.07, seed).unwrap();
            let out = integral_matching(&g, &cfg(seed)).unwrap();
            let opt = gm::blossom(&g).len();
            assert!(
                ((2.0 + 0.1) * out.matching.len() as f64) >= opt as f64,
                "seed {seed}: matched {} vs optimum {opt}",
                out.matching.len()
            );
        }
    }

    #[test]
    fn cover_is_valid_and_bounded() {
        for seed in 0..4u64 {
            let g = generators::gnp(150, 0.1, seed).unwrap();
            let out = integral_matching(&g, &cfg(seed)).unwrap();
            assert!(out.cover.covers(&g), "seed {seed}");
            let opt = gm::blossom(&g).len() as f64;
            assert!(out.cover.len() as f64 <= (2.0 + 50.0 * 0.1) * 2.0 * opt.max(1.0));
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(10);
        let out = integral_matching(&g, &cfg(1)).unwrap();
        assert!(out.matching.is_empty());
        assert!(out.cover.is_empty());
    }

    #[test]
    fn perfect_matching_graph() {
        let g = generators::disjoint_edges(200);
        let out = integral_matching(&g, &cfg(3)).unwrap();
        // Each disjoint edge must be matched by either path (maximal
        // matching on disjoint edges is perfect).
        assert_eq!(out.matching.len(), 200);
    }

    #[test]
    fn extraction_cap_respected() {
        let g = generators::gnp(120, 0.1, 2).unwrap();
        let mut c = cfg(2);
        c.max_extractions = Some(2);
        let out = integral_matching(&g, &c).unwrap();
        assert!(out.extractions <= 2);
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(150, 0.1, 4).unwrap();
        let a = integral_matching(&g, &cfg(8)).unwrap();
        let b = integral_matching(&g, &cfg(8)).unwrap();
        assert_eq!(a.matching.edges(), b.matching.edges());
        assert_eq!(a.extractions, b.extractions);
    }

    use mmvc_graph::Graph;
}

//! Prior-work baselines the paper compares against (Section 1.2), with the
//! same round metering as the main algorithms, for the E7 experiment.

use mmvc_graph::mis::IndependentSet;
use mmvc_graph::rng::hash3;
use mmvc_graph::Graph;
use mmvc_substrate::Bitset;

/// Output of [`luby_mis`].
#[derive(Debug, Clone)]
pub struct LubyOutcome {
    /// The maximal independent set, built unchecked: the run layer
    /// validates it once.
    pub mis: IndependentSet,
    /// Synchronous rounds executed — `O(log n)` w.h.p. \[Lub86\], the
    /// baseline the paper's `O(log log Δ)` algorithm improves on.
    pub rounds: usize,
}

/// Luby's classical MIS algorithm \[Lub86\]: per round, every live vertex
/// draws a random priority and joins the MIS if it beats all live
/// neighbors; MIS members and their neighbors are removed.
///
/// Each round is implementable in `O(1)` MPC rounds (local decisions +
/// one neighborhood exchange), so `rounds` is directly comparable with the
/// round counts of the Theorem 1.1 algorithm.
///
/// # Examples
///
/// ```
/// use mmvc_core::baselines::luby_mis;
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(300, 0.05, 1)?;
/// let out = luby_mis(&g, 7);
/// assert!(out.mis.is_maximal(&g));
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
pub fn luby_mis(g: &Graph, seed: u64) -> LubyOutcome {
    let n = g.num_vertices();
    // Word-packed masks: the per-round neighbor scans stream these.
    let mut in_mis = Bitset::new(n);
    let mut live = Bitset::filled(n);
    let mut rounds = 0usize;
    // Luby terminates in O(log n) rounds w.h.p.; the cap is a safety net.
    let cap = 8 * ((n.max(2) as f64).log2().ceil() as usize) + 16;

    loop {
        // Live vertices with no live neighbors join immediately.
        let mut remaining = 0usize;
        for v in 0..n as u32 {
            if !live.get(v as usize) {
                continue;
            }
            if g.neighbors(v).iter().all(|&u| !live.get(u as usize)) {
                in_mis.set(v as usize);
                live.clear(v as usize);
            } else {
                remaining += 1;
            }
        }
        if remaining == 0 || rounds >= cap {
            break;
        }

        // Random priorities; local minimum joins (ties broken by id —
        // hash collisions on 64 bits are negligible but handled).
        let priority = |v: u32| -> (u64, u32) { (hash3(seed, rounds as u64, v as u64), v) };
        let mut joins = Vec::new();
        for v in 0..n as u32 {
            if !live.get(v as usize) {
                continue;
            }
            let pv = priority(v);
            let is_min = g
                .neighbors(v)
                .iter()
                .all(|&u| !live.get(u as usize) || priority(u) > pv);
            if is_min {
                joins.push(v);
            }
        }
        for v in joins {
            in_mis.set(v as usize);
            live.clear(v as usize);
            for &u in g.neighbors(v) {
                live.clear(u as usize);
            }
        }
        rounds += 1;
    }

    let mis = IndependentSet::from_bitset_unchecked(&in_mis);
    LubyOutcome { mis, rounds }
}

/// Output of [`luby_maximal_matching`].
#[derive(Debug, Clone)]
pub struct LubyMatchingOutcome {
    /// The maximal matching.
    pub matching: mmvc_graph::matching::Matching,
    /// Rounds of the underlying MIS run on the line graph.
    pub rounds: usize,
}

/// The classical maximal matching via MIS on the line graph (paper,
/// introduction: "When this algorithm is applied to the line graph of
/// input graph G, it outputs a maximal matching of G").
///
/// A 2-approximation of maximum matching and, through its endpoints, a
/// 2-approximation of minimum vertex cover, in `O(log n)` rounds via
/// Luby.
///
/// Note the line graph can be much larger than `G` (`Σ deg²` edges), so
/// this baseline is also a memory cautionary tale — the reason the paper
/// works on `G` directly.
///
/// # Examples
///
/// ```
/// use mmvc_core::baselines::luby_maximal_matching;
/// use mmvc_graph::generators;
///
/// let g = generators::gnp(100, 0.05, 1)?;
/// let out = luby_maximal_matching(&g, 7);
/// assert!(out.matching.is_maximal(&g));
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
pub fn luby_maximal_matching(g: &Graph, seed: u64) -> LubyMatchingOutcome {
    let line = g.line_graph();
    let mis = luby_mis(&line, seed);
    let mut matching = mmvc_graph::matching::Matching::empty(g.num_vertices());
    for &edge_index in mis.mis.members() {
        let e = g.edges().get(edge_index as usize);
        let added = matching.try_add(e.u(), e.v());
        debug_assert!(added, "independent line-graph vertices are disjoint edges");
    }
    debug_assert!(
        matching.is_maximal(g),
        "maximal IS in L(G) is a maximal matching"
    );
    LubyMatchingOutcome {
        matching,
        rounds: mis.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;

    #[test]
    fn maximal_independent_on_many_graphs() {
        for seed in 0..5u64 {
            for g in [
                generators::gnp(300, 0.05, seed).unwrap(),
                generators::complete(30),
                generators::cycle(41),
                generators::star(50),
                generators::grid(8, 9),
            ] {
                let out = luby_mis(&g, seed);
                assert!(out.mis.is_independent(&g), "seed {seed}");
                assert!(out.mis.is_maximal(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn edgeless_zero_rounds() {
        let g = mmvc_graph::Graph::empty(10);
        let out = luby_mis(&g, 0);
        assert_eq!(out.mis.len(), 10);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn complete_graph_one_round() {
        let out = luby_mis(&generators::complete(20), 1);
        assert_eq!(out.mis.len(), 1);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn rounds_logarithmic() {
        let g = generators::gnp(2000, 0.01, 2).unwrap();
        let out = luby_mis(&g, 2);
        assert!(out.rounds <= 30, "Luby took {} rounds", out.rounds);
        assert!(out.rounds >= 2);
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(200, 0.1, 3).unwrap();
        assert_eq!(luby_mis(&g, 5).mis.members(), luby_mis(&g, 5).mis.members());
        assert_eq!(luby_mis(&g, 5).rounds, luby_mis(&g, 5).rounds);
    }

    #[test]
    fn line_graph_matching_maximal_and_half_approx() {
        for seed in 0..4u64 {
            let g = generators::gnp(120, 0.08, seed).unwrap();
            let out = luby_maximal_matching(&g, seed);
            assert!(out.matching.is_maximal(&g), "seed {seed}");
            let opt = mmvc_graph::matching::blossom(&g).len();
            assert!(2 * out.matching.len() >= opt, "seed {seed}");
        }
    }

    #[test]
    fn line_graph_matching_on_structured_graphs() {
        let out = luby_maximal_matching(&generators::star(20), 1);
        assert_eq!(
            out.matching.len(),
            1,
            "star has a single maximal matching edge"
        );
        let out = luby_maximal_matching(&generators::disjoint_edges(7), 1);
        assert_eq!(out.matching.len(), 7);
        let out = luby_maximal_matching(&mmvc_graph::Graph::empty(5), 1);
        assert!(out.matching.is_empty());
    }
}

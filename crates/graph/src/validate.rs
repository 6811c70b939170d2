//! Witness validation: one check per witness kind, each a single pass
//! over the rows of one vertex set.
//!
//! Every witness property the run layer reports reduces to one kernel:
//! *no edge of `g` has both ends in a set `S`*, given as a [`Bitset`].
//! The kernel walks only the rows of `S`'s vertices and marks their
//! neighbourhood `N(S)`; an edge lies inside `S` iff `S ∩ N(S)` is not
//! empty, and a word scan of the two masks finds the lexicographically
//! first such edge:
//!
//! | check | `S` | also |
//! |---|---|---|
//! | [`mis`] | the members | `N(S)` is the dominated set: the same word scan finds the first vertex neither a member nor dominated |
//! | [`cover`] | the vertices outside the cover | — |
//! | [`maximal_matching`] | the unmatched vertices | first, every matched pair must be an edge ([`matching`]) |
//!
//! Each check returns the first [`Violation`] in id order. On a threaded
//! executor the row walk is split into one part per thread (graphs of
//! 4096 vertices and more), each marking its own mask; the masks are
//! OR-ed, and OR is order-free, so the answer is a function of the graph
//! and the witness alone. The masks are drawn from and recycled into the
//! executor's [`ScratchPool`], so a check on a warm arena allocates no
//! fresh buffer.
//!
//! The public checkers of the witness types — [`IndependentSet::new`],
//! [`IndependentSet::is_maximal`], [`Matching::is_maximal`],
//! [`VertexCover::covers`] — stay as independent oracles: a proptest
//! holds both to the same verdicts on random and corrupted witnesses,
//! and the validators to a brute-force first violation, under the
//! sequential executor and on three threads.
//!
//! [`IndependentSet::new`]: crate::mis::IndependentSet::new
//! [`IndependentSet::is_maximal`]: crate::mis::IndependentSet::is_maximal
//!
//! # Examples
//!
//! ```
//! use mmvc_graph::validate::{self, Violation};
//! use mmvc_graph::generators;
//! use mmvc_substrate::{Bitset, ExecutorConfig};
//!
//! let g = generators::path(4); // 0-1-2-3
//! let exec = ExecutorConfig::sequential();
//! let mut members = Bitset::new(4);
//! members.set(0);
//! members.set(2);
//! assert_eq!(validate::mis(&g, &members, &exec), Ok(()));
//! members.clear(2);
//! assert_eq!(
//!     validate::mis(&g, &members, &exec),
//!     Err(Violation::Undominated(2))
//! );
//! ```

use crate::graph::{Graph, VertexId};
use crate::matching::Matching;
use crate::vertex_cover::VertexCover;
use mmvc_substrate::{Bitset, ExecutorConfig, ScratchPool};

/// The first thing wrong with a witness, in id order. Edges are named
/// by their endpoints `(u, v)`, `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Two members of an independent set are adjacent.
    AdjacentMembers(VertexId, VertexId),
    /// A vertex outside an independent set has no neighbour in it.
    Undominated(VertexId),
    /// An edge with neither endpoint in the cover.
    UncoveredEdge(VertexId, VertexId),
    /// A matched pair that is not an edge of the graph.
    NotAnEdge(VertexId, VertexId),
    /// An edge with both endpoints unmatched: the matching is not
    /// maximal.
    FreeEdge(VertexId, VertexId),
}

/// Words of `S` per part below which the neighbourhood pass is not
/// split: graphs under 4096 vertices are checked on the calling thread.
const MIN_PART_WORDS: usize = 64;

/// The kernel's pass: marks `N(S)` — every neighbour of every vertex of
/// `s` — in a pooled mask, walking only `s`'s rows. Some edge lies
/// inside `S` iff some vertex of `S` is in `N(S)`.
///
/// `S`'s words are split into one part per executor thread (each at
/// least [`MIN_PART_WORDS`] long); each part marks into its own pooled
/// mask and the masks are OR-ed. OR is order-free, so `N(S)` — and every
/// answer derived from it — is the same for every split.
fn neighbourhood(g: &Graph, s: &Bitset, exec: &ExecutorConfig, pool: &ScratchPool) -> Bitset {
    let n = g.num_vertices();
    let words = s.words();
    let parts = exec
        .threads()
        .min(words.len().div_ceil(MIN_PART_WORDS))
        .max(1);
    let mut masks = exec.run_chunked(words.len(), words.len().div_ceil(parts).max(1), |range| {
        let mut near = Bitset::new_in(pool, n);
        for (i, &word) in range.clone().zip(&words[range]) {
            let mut rest = word;
            while rest != 0 {
                let u = 64 * i as VertexId + rest.trailing_zeros();
                rest &= rest - 1;
                for &w in g.neighbors(u) {
                    near.set(w as usize);
                }
            }
        }
        near
    });
    let mut near = masks.pop().unwrap_or_else(|| Bitset::new_in(pool, n));
    for part in masks {
        for (a, b) in near.words_mut().iter_mut().zip(part.words()) {
            *a |= b;
        }
        part.recycle(pool);
    }
    near
}

/// Runs `check` with the executor's scratch arena, or a throwaway one
/// when it has none.
fn with_pool<R>(exec: &ExecutorConfig, check: impl FnOnce(&ScratchPool) -> R) -> R {
    match exec.scratch() {
        Some(pool) => check(pool),
        None => check(&ScratchPool::new()),
    }
}

/// The first set bit of a word stream, as a vertex id.
fn first_one(words: impl Iterator<Item = u64>) -> Option<VertexId> {
    words
        .enumerate()
        .find_map(|(i, w)| (w != 0).then(|| (64 * i) as VertexId + w.trailing_zeros()))
}

/// The lexicographically first edge `(u, v)` with both ends in `S`, given
/// `near = N(S)`: `u` is the first vertex of `S ∩ N(S)`, and `v` its
/// first neighbour in `S` (which is in `N(S)` too, so `v > u`).
fn first_edge_within(g: &Graph, s: &Bitset, near: &Bitset) -> Option<(VertexId, VertexId)> {
    let u = first_one(s.words().iter().zip(near.words()).map(|(&a, &b)| a & b))?;
    let v = g.neighbors(u).iter().find(|&&w| s.get(w as usize));
    Some((u, *v.expect("u has a neighbour in S")))
}

/// The kernel on `S = V ∖ exclude`: the first edge with neither end in
/// `exclude`, after one pass over `S`'s rows.
fn first_edge_avoiding(
    g: &Graph,
    exclude: impl Iterator<Item = VertexId>,
    exec: &ExecutorConfig,
) -> Option<(VertexId, VertexId)> {
    with_pool(exec, |pool| {
        let n = g.num_vertices();
        let mut s = Bitset::new_in(pool, n);
        s.set_all();
        for v in exclude.filter(|&v| (v as usize) < n) {
            s.clear(v as usize);
        }
        let near = neighbourhood(g, &s, exec, pool);
        let edge = first_edge_within(g, &s, &near);
        near.recycle(pool);
        s.recycle(pool);
        edge
    })
}

/// Checks that `members` is a maximal independent set of `g`: no two
/// members are adjacent, and every other vertex has a member neighbour.
/// One pass over the members' rows marks their neighbourhood, which
/// answers both; an adjacent pair is reported before an undominated
/// vertex.
///
/// # Panics
///
/// Panics if `members.len() != g.num_vertices()`.
pub fn mis(g: &Graph, members: &Bitset, exec: &ExecutorConfig) -> Result<(), Violation> {
    let n = g.num_vertices();
    assert_eq!(members.len(), n, "member mask length must equal n");
    with_pool(exec, |pool| {
        let dominated = neighbourhood(g, members, exec, pool);
        let result = mis_verdict(g, members, &dominated);
        dominated.recycle(pool);
        result
    })
}

/// Independence, then domination, read off the members' neighbourhood.
fn mis_verdict(g: &Graph, members: &Bitset, dominated: &Bitset) -> Result<(), Violation> {
    let n = g.num_vertices();
    match first_edge_within(g, members, dominated) {
        Some((u, v)) => Err(Violation::AdjacentMembers(u, v)),
        None => {
            let words = members.words().iter().zip(dominated.words());
            let free = words.enumerate().map(|(i, (&m, &d))| {
                // Bits at or past n are no vertex.
                let live = if n - 64 * i < 64 {
                    (1u64 << (n - 64 * i)) - 1
                } else {
                    u64::MAX
                };
                !(m | d) & live
            });
            first_one(free).map_or(Ok(()), |v| Err(Violation::Undominated(v)))
        }
    }
}

/// Checks that `cover` covers every edge of `g`.
pub fn cover(g: &Graph, cover: &VertexCover, exec: &ExecutorConfig) -> Result<(), Violation> {
    first_edge_avoiding(g, cover.members().iter().copied(), exec)
        .map_or(Ok(()), |(u, v)| Err(Violation::UncoveredEdge(u, v)))
}

/// Checks that every matched pair of `m` is an edge of `g`; the first
/// offending pair in id order is reported. (Vertex-disjointness is the
/// [`Matching`] type's own invariant.)
pub fn matching(g: &Graph, m: &Matching) -> Result<(), Violation> {
    m.edges()
        .iter()
        .map(|e| (e.u(), e.v()))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .min()
        .map_or(Ok(()), |(u, v)| Err(Violation::NotAnEdge(u, v)))
}

/// Checks that `m` is a maximal matching of `g`: every pair is an edge
/// ([`matching`], reported first), and no edge has both ends unmatched.
pub fn maximal_matching(g: &Graph, m: &Matching, exec: &ExecutorConfig) -> Result<(), Violation> {
    matching(g, m)?;
    let ends = m.edges().iter().flat_map(|e| [e.u(), e.v()]);
    first_edge_avoiding(g, ends, exec).map_or(Ok(()), |(u, v)| Err(Violation::FreeEdge(u, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::{randomized_greedy_mis, IndependentSet};
    use crate::{generators, matching, vertex_cover};
    use proptest::prelude::*;

    /// gnp, power-law, star, complete or edgeless, on up to 150 vertices,
    /// so masks span several words and usually end mid-word.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (0usize..5, 1usize..150, any::<u64>()).prop_map(|(family, n, seed)| match family {
            0 => generators::gnp(n, 0.06, seed).expect("valid p"),
            1 => generators::power_law(n, 2.5, 4.0, seed).expect("valid parameters"),
            2 => generators::star(n),
            3 => generators::complete(n.min(40)),
            _ => Graph::empty(n),
        })
    }

    /// Graphs large enough that three threads split the neighbourhood
    /// pass into three parts.
    fn arb_split_graph() -> impl Strategy<Value = Graph> {
        (0usize..3, 8193usize..12000, any::<u64>()).prop_map(|(family, n, seed)| match family {
            0 => generators::gnp(n, 3.0 / n as f64, seed).expect("valid p"),
            1 => generators::star(n),
            _ => Graph::empty(n),
        })
    }

    /// Runs `check` on the sequential executor and on three threads,
    /// both on `pool`; the two answers must be the same.
    fn on_both<T: PartialEq + std::fmt::Debug>(
        pool: &ScratchPool,
        check: impl Fn(&ExecutorConfig) -> T,
    ) -> T {
        let sequential = check(&ExecutorConfig::sequential().with_scratch(pool));
        let threaded = check(&ExecutorConfig::with_threads(3).with_scratch(pool));
        prop_assert_eq!(&sequential, &threaded, "sequential vs three threads");
        sequential
    }

    fn mask_of(n: usize, members: impl IntoIterator<Item = VertexId>) -> Bitset {
        let mut mask = Bitset::new(n);
        for v in members {
            mask.set(v as usize);
        }
        mask
    }

    /// Brute force over the edge list: the smallest edge with both ends
    /// inside.
    fn first_edge_ref(
        g: &Graph,
        inside: impl Fn(VertexId) -> bool,
    ) -> Option<(VertexId, VertexId)> {
        g.edges()
            .iter()
            .map(|e| (e.u(), e.v()))
            .filter(|&(u, v)| inside(u) && inside(v))
            .min()
    }

    /// [`mis`] against today's public checkers and a brute-force
    /// reference for the first violation; returns the verdict.
    fn check_mis(g: &Graph, mask: &Bitset, pool: &ScratchPool) -> bool {
        let got = on_both(pool, |exec| mis(g, mask, exec));
        let members = mask.iter_ones().map(|v| v as VertexId);
        let oracle = IndependentSet::new(g, members).is_some_and(|s| s.is_maximal(g));
        prop_assert_eq!(got.is_ok(), oracle);
        let reference = match first_edge_ref(g, |v| mask.get(v as usize)) {
            Some((u, v)) => Err(Violation::AdjacentMembers(u, v)),
            None => g
                .vertices()
                .find(|&v| {
                    !mask.get(v as usize) && !g.neighbors(v).iter().any(|&w| mask.get(w as usize))
                })
                .map_or(Ok(()), |v| Err(Violation::Undominated(v))),
        };
        prop_assert_eq!(got, reference);
        oracle
    }

    fn check_cover(g: &Graph, c: &VertexCover, pool: &ScratchPool) -> bool {
        let got = on_both(pool, |exec| cover(g, c, exec));
        prop_assert_eq!(got.is_ok(), c.covers(g));
        let reference = first_edge_ref(g, |v| !c.contains(v))
            .map_or(Ok(()), |(u, v)| Err(Violation::UncoveredEdge(u, v)));
        prop_assert_eq!(got, reference);
        c.covers(g)
    }

    /// Both matching checks; returns the maximal-matching verdict.
    fn check_matching(g: &Graph, m: &Matching, pool: &ScratchPool) -> bool {
        let pairs = m.edges().iter().map(|e| (e.u(), e.v()));
        let edges_oracle = Matching::new(g, pairs).is_some();
        let maximal_oracle = edges_oracle && m.is_maximal(g);
        let got_edges = matching(g, m);
        let got_maximal = on_both(pool, |exec| maximal_matching(g, m, exec));
        prop_assert_eq!(got_edges.is_ok(), edges_oracle);
        prop_assert_eq!(got_maximal.is_ok(), maximal_oracle);
        let not_an_edge = m
            .edges()
            .iter()
            .map(|e| (e.u(), e.v()))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .min()
            .map(|(u, v)| Violation::NotAnEdge(u, v));
        prop_assert_eq!(got_edges, not_an_edge.map_or(Ok(()), Err));
        let free = first_edge_ref(g, |v| !m.covers(v)).map(|(u, v)| Violation::FreeEdge(u, v));
        prop_assert_eq!(got_maximal, not_an_edge.or(free).map_or(Ok(()), Err));
        maximal_oracle
    }

    /// Algorithm outputs pass, and each of four corruptions — drop a
    /// member, add an adjacent member, match a non-edge, uncover an
    /// edge — is rejected by both the validators and the checkers.
    fn corruptions_are_rejected(g: &Graph, seed: u64, pick: usize) {
        let pool = ScratchPool::new();
        let n = g.num_vertices();

        let s = randomized_greedy_mis(g, seed);
        prop_assert!(check_mis(
            g,
            &mask_of(n, s.members().iter().copied()),
            &pool
        ));
        let mut mask = mask_of(n, s.members().iter().copied());
        mask.clear(s.members()[pick % s.len()] as usize);
        prop_assert!(!check_mis(g, &mask, &pool), "drop a member");
        let outside: Vec<VertexId> = g.vertices().filter(|&v| !s.contains(v)).collect();
        if !outside.is_empty() {
            let mut mask = mask_of(n, s.members().iter().copied());
            mask.set(outside[pick % outside.len()] as usize);
            prop_assert!(!check_mis(g, &mask, &pool), "add an adjacent member");
        }

        let mut m = matching::greedy_maximal_matching(g);
        prop_assert!(check_matching(g, &m, &pool));
        // Free vertices of a maximal matching are pairwise non-adjacent.
        let free: Vec<VertexId> = g.vertices().filter(|&v| !m.covers(v)).collect();
        if free.len() >= 2 {
            let (u, v) = (free[pick % free.len()], free[(pick + 1) % free.len()]);
            m.try_add(u, v);
            prop_assert!(!check_matching(g, &m, &pool), "match a non-edge");
        }

        let c = vertex_cover::two_approx_vertex_cover(g);
        prop_assert!(check_cover(g, &c, &pool));
        if g.num_edges() > 0 {
            let e = g
                .edges()
                .iter()
                .nth(pick % g.num_edges())
                .expect("in range");
            let mut keep: Vec<bool> = (0..n as VertexId).map(|v| c.contains(v)).collect();
            keep[e.u() as usize] = false;
            keep[e.v() as usize] = false;
            let holed = VertexCover::from_mask_unchecked(keep);
            prop_assert!(!check_cover(g, &holed, &pool), "uncover an edge");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random witnesses: the validators accept and reject exactly
        /// what today's public checkers do, and name the first violation.
        #[test]
        fn random_witnesses_match_the_public_checkers(
            g in arb_graph(),
            bits in proptest::collection::vec(any::<bool>(), 150),
            pairs in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 0..40)
        ) {
            let pool = ScratchPool::new();
            let n = g.num_vertices();
            let mask = mask_of(n, (0..n as VertexId).filter(|&v| bits[v as usize]));
            check_mis(&g, &mask, &pool);
            check_cover(&g, &VertexCover::from_mask_unchecked(bits[..n].to_vec()), &pool);
            // Pairs: a present edge or an arbitrary vertex pair.
            let edges: Vec<_> = g.edges().iter().collect();
            let mut m = Matching::empty(n);
            for (from_edges, a, b) in pairs {
                let (u, v) = if from_edges && !edges.is_empty() {
                    let e = edges[a as usize % edges.len()];
                    (e.u(), e.v())
                } else {
                    (a % n as u32, b % n as u32)
                };
                if u != v {
                    m.try_add(u, v);
                }
            }
            check_matching(&g, &m, &pool);
        }

        #[test]
        fn corrupted_witnesses_are_rejected(g in arb_graph(), seed in any::<u64>(), pick in any::<usize>()) {
            corruptions_are_rejected(&g, seed, pick);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same, where three threads split the pass three ways.
        #[test]
        fn corrupted_witnesses_are_rejected_on_split_passes(
            g in arb_split_graph(),
            seed in any::<u64>(),
            pick in any::<usize>()
        ) {
            corruptions_are_rejected(&g, seed, pick);
        }
    }

    #[test]
    fn checks_recycle_their_masks() {
        let g = generators::gnp(9000, 0.001, 3).unwrap();
        let pool = ScratchPool::new();
        let exec = ExecutorConfig::with_threads(2).with_scratch(&pool);
        let s = randomized_greedy_mis(&g, 1);
        let mask = mask_of(9000, s.members().iter().copied());
        let m = matching::greedy_maximal_matching(&g);
        let c = vertex_cover::two_approx_vertex_cover(&g);
        let run = || {
            assert_eq!(mis(&g, &mask, &exec), Ok(()));
            assert_eq!(maximal_matching(&g, &m, &exec), Ok(()));
            assert_eq!(cover(&g, &c, &exec), Ok(()));
        };
        run();
        pool.reset_stats();
        run();
        assert_eq!(pool.stats().allocations, 0, "{:?}", pool.stats());
    }
}

//! Independent sets: representation, validation, and the sequential
//! randomized greedy algorithm that the paper's MPC simulation emulates.

use crate::graph::{Graph, VertexId};
use crate::rng::{invert_permutation, random_permutation};
use mmvc_substrate::Bitset;

/// A validated independent set of a graph.
///
/// # Examples
///
/// ```
/// use mmvc_graph::{generators, mis::IndependentSet};
/// let g = generators::cycle(6);
/// let is = IndependentSet::new(&g, vec![0, 2, 4]).unwrap();
/// assert!(is.is_maximal(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndependentSet {
    members: Vec<VertexId>,
    in_set: Vec<bool>,
}

impl IndependentSet {
    /// Creates an empty independent set for a graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        IndependentSet {
            members: Vec::new(),
            in_set: vec![false; n],
        }
    }

    /// Builds an independent set from `vertices`, validating pairwise
    /// non-adjacency against `g`. Returns `None` if two members are
    /// adjacent, a member repeats, or an id is out of range.
    pub fn new<I>(g: &Graph, vertices: I) -> Option<Self>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut s = IndependentSet::empty(g.num_vertices());
        for v in vertices {
            if v as usize >= g.num_vertices() || s.in_set[v as usize] {
                return None;
            }
            if g.neighbors(v).iter().any(|&w| s.in_set[w as usize]) {
                return None;
            }
            s.in_set[v as usize] = true;
            s.members.push(v);
        }
        s.members.sort_unstable();
        Some(s)
    }

    /// Builds from a membership [`Bitset`] without validation, as
    /// [`VertexCover::from_mask_unchecked`](crate::vertex_cover::VertexCover::from_mask_unchecked)
    /// does: algorithms that prove independence by construction return
    /// unchecked sets, and the run layer checks each one once with
    /// [`validate::mis`](crate::validate::mis).
    pub fn from_bitset_unchecked(mask: &Bitset) -> Self {
        let members: Vec<VertexId> = mask.iter_ones().map(|v| v as VertexId).collect();
        let mut in_set = vec![false; mask.len()];
        for &v in &members {
            in_set[v as usize] = true;
        }
        IndependentSet { members, in_set }
    }

    /// Builds from a membership mask without validation (callers uphold
    /// independence; used by algorithm internals that prove it by
    /// construction).
    pub(crate) fn from_mask_unchecked(in_set: Vec<bool>) -> Self {
        let members = in_set
            .iter()
            .enumerate()
            .filter_map(|(v, &b)| b.then_some(v as VertexId))
            .collect();
        IndependentSet { members, in_set }
    }

    /// Number of vertices in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Sorted members.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        self.in_set.get(v as usize).copied().unwrap_or(false)
    }

    /// Checks independence against `g` (always true for validated
    /// constructions; useful for cross-checking algorithm output).
    pub fn is_independent(&self, g: &Graph) -> bool {
        self.members
            .iter()
            .all(|&v| !g.neighbors(v).iter().any(|&w| self.contains(w)))
    }

    /// Checks maximality: every non-member has a neighbor in the set.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        g.vertices()
            .all(|v| self.contains(v) || g.neighbors(v).iter().any(|&w| self.contains(w)))
    }

    /// The complement vertex set as a
    /// [`VertexCover`](crate::vertex_cover::VertexCover) — the classical
    /// duality: `S` is an independent set of `G` iff `V ∖ S` is a vertex
    /// cover of `G`. A *maximum* independent set complements to a
    /// *minimum* vertex cover.
    ///
    /// # Examples
    ///
    /// ```
    /// use mmvc_graph::{generators, mis};
    /// let g = generators::cycle(6);
    /// let s = mis::randomized_greedy_mis(&g, 1);
    /// assert!(s.to_vertex_cover().covers(&g));
    /// ```
    pub fn to_vertex_cover(&self) -> crate::vertex_cover::VertexCover {
        let mask: Vec<bool> = self.in_set.iter().map(|&b| !b).collect();
        crate::vertex_cover::VertexCover::from_mask_unchecked(mask)
    }
}

/// Sequential greedy MIS processing vertices in the order given by `ranks`
/// (`ranks[v]` = position of `v`; lower rank processed first).
///
/// This is the reference implementation of the paper's "randomized greedy"
/// algorithm (Section 3.1) when `ranks` is a uniformly random permutation.
///
/// # Panics
///
/// Panics if `ranks.len() != g.num_vertices()`.
pub fn greedy_mis_by_rank(g: &Graph, ranks: &[u32]) -> IndependentSet {
    assert_eq!(
        ranks.len(),
        g.num_vertices(),
        "rank array length must equal n"
    );
    let order = invert_permutation(ranks); // order[i] = vertex with rank i
    let n = g.num_vertices();
    let mut in_set = vec![false; n];
    let mut blocked = vec![false; n];
    for &v in &order {
        let v = v as usize;
        if !blocked[v] {
            in_set[v] = true;
            for &w in g.neighbors(v as VertexId) {
                blocked[w as usize] = true;
            }
        }
    }
    IndependentSet::from_mask_unchecked(in_set)
}

/// Randomized greedy MIS with a fresh uniform permutation drawn from `seed`
/// (paper, Section 3.1).
pub fn randomized_greedy_mis(g: &Graph, seed: u64) -> IndependentSet {
    let perm = random_permutation(g.num_vertices(), seed);
    let ranks = invert_permutation(&perm);
    greedy_mis_by_rank(g, &ranks)
}

/// Greedy MIS in natural vertex order — the deterministic baseline.
pub fn greedy_mis(g: &Graph) -> IndependentSet {
    let ranks: Vec<u32> = (0..g.num_vertices() as u32).collect();
    greedy_mis_by_rank(g, &ranks)
}

/// Greedy MIS together with the *pivot assignment*: for every vertex, the
/// MIS member that decided it — itself for members, and otherwise its
/// smallest-rank MIS neighbor (the vertex whose selection removed it).
///
/// This is exactly the CC-Pivot clustering of Ailon–Charikar–Newman as
/// used for correlation clustering in \[ACG+15\], the work the paper's
/// Lemma 3.1 is adapted from: pivots are the MIS, and each cluster is a
/// pivot plus the vertices assigned to it. Isolated vertices are their own
/// pivots.
///
/// # Panics
///
/// Panics if `ranks.len() != g.num_vertices()`.
///
/// # Examples
///
/// ```
/// use mmvc_graph::{generators, mis::greedy_mis_with_pivots};
/// let g = generators::star(5); // center 0, leaves 1..4
/// let ranks: Vec<u32> = (0..5).collect(); // center processed first
/// let (mis, pivot) = greedy_mis_with_pivots(&g, &ranks);
/// assert!(mis.contains(0));
/// assert!(pivot.iter().all(|&p| p == 0), "all leaves cluster with the center");
/// ```
pub fn greedy_mis_with_pivots(g: &Graph, ranks: &[u32]) -> (IndependentSet, Vec<VertexId>) {
    let set = greedy_mis_by_rank(g, ranks);
    let n = g.num_vertices();
    let mut pivot = vec![0 as VertexId; n];
    for v in 0..n as u32 {
        if set.contains(v) {
            pivot[v as usize] = v;
        } else {
            pivot[v as usize] = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| set.contains(u))
                .min_by_key(|&u| ranks[u as usize])
                .unwrap_or(v); // isolated non-members cannot exist; defensive
        }
    }
    (set, pivot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn validated_construction() {
        let g = generators::cycle(6);
        assert!(IndependentSet::new(&g, vec![0, 2, 4]).is_some());
        assert!(
            IndependentSet::new(&g, vec![0, 1]).is_none(),
            "adjacent pair"
        );
        assert!(IndependentSet::new(&g, vec![0, 0]).is_none(), "duplicate");
        assert!(IndependentSet::new(&g, vec![9]).is_none(), "out of range");
    }

    #[test]
    fn empty_set_properties() {
        let g = generators::path(4);
        let s = IndependentSet::empty(4);
        assert!(s.is_empty());
        assert!(s.is_independent(&g));
        assert!(!s.is_maximal(&g));
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn greedy_natural_order_on_path() {
        // Path 0-1-2-3-4: natural greedy picks 0, 2, 4.
        let s = greedy_mis(&generators::path(5));
        assert_eq!(s.members(), &[0, 2, 4]);
    }

    #[test]
    fn greedy_by_rank_respects_order() {
        // Path 0-1-2: rank 1 first -> MIS = {1} only... actually {1} blocks
        // 0 and 2, and is maximal.
        let g = generators::path(3);
        let ranks = vec![1u32, 0, 2]; // vertex 1 has rank 0
        let s = greedy_mis_by_rank(&g, &ranks);
        assert_eq!(s.members(), &[1]);
        assert!(s.is_maximal(&g));
    }

    #[test]
    fn randomized_greedy_always_maximal_independent() {
        for seed in 0..20u64 {
            for g in [
                generators::gnp(80, 0.08, seed).unwrap(),
                generators::cycle(31),
                generators::star(40),
                generators::complete(12),
            ] {
                let s = randomized_greedy_mis(&g, seed);
                assert!(s.is_independent(&g), "seed {seed}");
                assert!(s.is_maximal(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn complete_graph_mis_is_single_vertex() {
        let s = randomized_greedy_mis(&generators::complete(9), 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn edgeless_graph_mis_is_everything() {
        let g = crate::graph::Graph::empty(7);
        let s = randomized_greedy_mis(&g, 0);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::gnp(50, 0.1, 1).unwrap();
        assert_eq!(
            randomized_greedy_mis(&g, 5).members(),
            randomized_greedy_mis(&g, 5).members()
        );
    }

    #[test]
    #[should_panic(expected = "rank array length")]
    fn rank_length_mismatch_panics() {
        greedy_mis_by_rank(&generators::path(3), &[0, 1]);
    }

    #[test]
    fn pivots_cluster_structure() {
        let g = generators::gnp(100, 0.1, 3).unwrap();
        let perm = crate::rng::random_permutation(100, 3);
        let ranks = crate::rng::invert_permutation(&perm);
        let (set, pivot) = greedy_mis_with_pivots(&g, &ranks);
        for v in 0..100u32 {
            let p = pivot[v as usize];
            // Every pivot is an MIS member (or the vertex itself when
            // isolated).
            if set.contains(v) {
                assert_eq!(p, v, "members are their own pivots");
            } else {
                assert!(set.contains(p), "pivot of {v} must be in the MIS");
                assert!(g.has_edge(v, p), "pivot must be a neighbor");
                // And it is the *smallest-rank* MIS neighbor.
                for &u in g.neighbors(v) {
                    if set.contains(u) {
                        assert!(ranks[p as usize] <= ranks[u as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn complement_of_is_is_cover_and_clique_duality() {
        for seed in 0..5u64 {
            let g = generators::gnp(40, 0.2, seed).unwrap();
            let s = randomized_greedy_mis(&g, seed);
            // IS complement is a vertex cover.
            let c = s.to_vertex_cover();
            assert!(c.covers(&g), "seed {seed}");
            assert_eq!(c.len() + s.len(), 40);
            // IS of G is a clique of the complement graph.
            let comp = g.complement();
            for &u in s.members() {
                for &v in s.members() {
                    if u < v {
                        assert!(comp.has_edge(u, v), "seed {seed}: {u},{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn pivots_isolated_vertices_self_assign() {
        let g = crate::graph::Graph::empty(4);
        let ranks: Vec<u32> = (0..4).collect();
        let (set, pivot) = greedy_mis_with_pivots(&g, &ranks);
        assert_eq!(set.len(), 4);
        assert_eq!(pivot, vec![0, 1, 2, 3]);
    }
}

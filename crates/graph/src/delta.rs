//! Batched graph deltas and the CSR delta-merge rebuild.
//!
//! A [`GraphDelta`] stages edge insertions and deletions against an
//! existing [`Graph`]; [`Graph::apply_delta`] produces the mutated graph
//! by *merging* the existing per-vertex-sorted adjacency runs with the
//! (tiny) sorted delta instead of re-running the generator and the full
//! counting-sort build. The contract is exact:
//!
//! * **Equivalence.** The result is byte-identical to a from-scratch
//!   [`GraphBuilder`] build of the mutated edge list
//!   `(E ∪ inserts) ∖ deletes` — same `u32`-packed offset arrays, same
//!   adjacency bytes — across `Sequential` and `Threaded{k}` executors.
//!   Inserting an edge that already exists and deleting one that does
//!   not are no-ops (the mutated edge *set* is what is built), and the
//!   last staged op per edge wins, so `delete; insert` re-inserts.
//! * **Work.** The merged CSR is written once, straight into its final
//!   arrays, in one pass over the vertices in id order. Each untouched
//!   span between two touched vertices is one bulk copy (`memcpy`, no
//!   per-edge work) of the old adjacency run, and its offsets are the old
//!   ones plus a running shift; each touched vertex runs a three-way
//!   merge of its old row, its inserts and its deletes. Work is one copy
//!   of the adjacency plus time proportional to the delta. With a warm
//!   [`ScratchPool`](mmvc_substrate::ScratchPool) on the executor, the
//!   op lists *and* the output arrays come from the arena, so a repeated
//!   delta of the same size allocates no fresh bytes — pair with
//!   [`Graph::recycle`] on the predecessor graph to keep the arena
//!   stocked across a session's update loop.
//! * **Determinism.** The merge is one sequential pass whose output
//!   depends only on the old graph and the normalized delta, so the
//!   executor washes out of the bytes entirely.
//!
//! Wide graphs (u64 offsets) and merges that would overflow the
//! `u32`-packed representation take a from-scratch rebuild of the
//! mutated edge list through the ordinary builder: the equivalence
//! contract holds trivially there, at from-scratch cost.
//!
//! # Examples
//!
//! ```
//! use mmvc_graph::{generators, GraphDelta};
//!
//! let g = generators::gnp(64, 0.1, 7)?;
//! let mut delta = GraphDelta::new();
//! delta.insert_edge(0, 1)?;
//! delta.delete_edge(2, 3)?; // a no-op unless {2,3} is present
//! let g2 = g.apply_delta(&delta)?;
//! assert!(g2.has_edge(0, 1));
//! assert!(!g2.has_edge(2, 3));
//! # Ok::<(), mmvc_graph::GraphError>(())
//! ```

use crate::error::GraphError;
use crate::graph::{pack_edge, Edge, Graph, GraphBuilder, OffsetArray, VertexId};
use mmvc_substrate::ExecutorConfig;

/// One staged mutation: the op kind for a packed canonical edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaOp {
    Insert,
    Delete,
}

/// A batch of edge insertions and deletions against a [`Graph`].
///
/// Ops are staged in arrival order; per edge, the **last staged op
/// wins** (so `delete_edge(u, v)` followed by `insert_edge(u, v)` nets
/// out to an insert). Self-loops are rejected at staging time; endpoint
/// range is validated against the graph at apply time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// `(packed canonical edge, op)` in arrival order.
    ops: Vec<(u64, DeltaOp)>,
}

impl GraphDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Stages an edge insertion. Order of endpoints is irrelevant.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] when `a == b`.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) -> Result<(), GraphError> {
        self.stage(a, b, DeltaOp::Insert)
    }

    /// Stages an edge deletion. Order of endpoints is irrelevant.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] when `a == b`.
    pub fn delete_edge(&mut self, a: VertexId, b: VertexId) -> Result<(), GraphError> {
        self.stage(a, b, DeltaOp::Delete)
    }

    fn stage(&mut self, a: VertexId, b: VertexId, op: DeltaOp) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { vertex: a });
        }
        self.ops.push((pack_edge(Edge::new(a, b)), op));
        Ok(())
    }

    /// Number of staged ops (before last-op-wins normalization).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The normalized delta against a graph on `n` vertices: disjoint,
    /// canonically sorted insert and delete edge sets, one op per edge
    /// (the last staged one).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when an endpoint is `>= n`.
    pub fn normalized(&self, n: usize) -> Result<(Vec<Edge>, Vec<Edge>), GraphError> {
        let (ins, del) = self.normalized_packed(n)?;
        let unpack = |p: u64| Edge::new((p >> 32) as VertexId, p as VertexId);
        Ok((
            ins.into_iter().map(unpack).collect(),
            del.into_iter().map(unpack).collect(),
        ))
    }

    /// The packed form of [`normalized`](Self::normalized): sorted,
    /// deduplicated, disjoint `(u << 32) | v` words.
    pub(crate) fn normalized_packed(&self, n: usize) -> Result<(Vec<u64>, Vec<u64>), GraphError> {
        let mut staged = self.ops.clone();
        // Stable by packed edge: arrival order survives within a group,
        // so the last element of each group is the winning op.
        staged.sort_by_key(|&(p, _)| p);
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        let mut i = 0;
        while i < staged.len() {
            let (p, _) = staged[i];
            let mut last = staged[i].1;
            while i + 1 < staged.len() && staged[i + 1].0 == p {
                i += 1;
                last = staged[i].1;
            }
            i += 1;
            // The larger endpoint is the packed word's low half.
            let v = p as u32;
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            match last {
                DeltaOp::Insert => inserts.push(p),
                DeltaOp::Delete => deletes.push(p),
            }
        }
        Ok((inserts, deletes))
    }
}

impl Graph {
    /// Applies a delta on a default executor. See
    /// [`apply_delta_with`](Self::apply_delta_with).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when the delta names a vertex
    /// `>= num_vertices()`.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Graph, GraphError> {
        self.apply_delta_with(delta, &ExecutorConfig::default())
    }

    /// Rebuilds the CSR by merging this graph's per-vertex-sorted
    /// adjacency runs with the delta, producing the graph of the mutated
    /// edge list `(E ∪ inserts) ∖ deletes`.
    ///
    /// The result is byte-identical to a from-scratch build of the
    /// mutated edge list, for every executor (see the module docs for
    /// the full contract). Buffers — including the output arrays — are
    /// drawn from the executor's [`ScratchPool`](mmvc_substrate::ScratchPool)
    /// when one is attached.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] when the delta names a vertex
    /// `>= num_vertices()`.
    pub fn apply_delta_with(
        &self,
        delta: &GraphDelta,
        exec: &ExecutorConfig,
    ) -> Result<Graph, GraphError> {
        let n = self.n;
        let (ins, del) = delta.normalized_packed(n)?;
        let unpack = |p: u64| ((p >> 32) as VertexId, p as VertexId);
        // Exact post-merge size: staged inserts already present and
        // deletes of absent edges are no-ops.
        let real_ins = ins
            .iter()
            .filter(|&&p| {
                let (u, v) = unpack(p);
                !self.has_edge(u, v)
            })
            .count();
        let real_del = del
            .iter()
            .filter(|&&p| {
                let (u, v) = unpack(p);
                self.has_edge(u, v)
            })
            .count();
        let new_directed = self.adj.len() + 2 * real_ins - 2 * real_del;
        if self.offsets.is_wide() || new_directed > u32::MAX as usize {
            // Wide representation (or a merge that would overflow the
            // packed one): rebuild from scratch so the builder makes the
            // same width decision it would make cold.
            return Ok(self.rebuild_with_delta(&ins, &del, exec));
        }

        // Directed forms of the delta, sorted by (owner, neighbor): the
        // per-vertex op slices the merge consumes are contiguous runs.
        let directed = |src: &[u64]| {
            if src.is_empty() {
                // Never draw a zero-capacity buffer from the arena.
                return Vec::new();
            }
            let mut d = exec.take_u64(2 * src.len());
            for &p in src {
                let (u, v) = (p >> 32, p & 0xFFFF_FFFF);
                d.push(p);
                d.push((v << 32) | u);
            }
            d.sort_unstable();
            d
        };
        let dins = directed(&ins);
        let ddel = directed(&del);

        // Write once: walk the touched vertices (the owners of the sorted
        // directed ops) in id order. Each untouched span between two of
        // them is one bulk copy of the old adjacency run, and its offsets
        // are the old ones plus a running shift; each touched vertex is a
        // three-way merge straight into the final array. The output
        // arrays come from the arena at their exact size — with
        // `Graph::recycle` feeding the predecessor back, a repeated delta
        // allocates no fresh bytes.
        let (OffsetArray::U32(old_off), OffsetArray::U32(old_fwd)) =
            (&self.offsets, &self.fwd_offsets)
        else {
            unreachable!("wide offsets took the rebuild path");
        };
        let mut offsets = exec.take_u32(n + 1);
        let mut fwd_offsets = exec.take_u32(n + 1);
        let mut adj = exec.take_u32(new_directed);
        offsets.push(0);
        fwd_offsets.push(0);
        let owner = |p: u64| (p >> 32) as usize;
        // The owner of op `i`, or `n` past the end.
        let owner_at = |ops: &[u64], i: usize| ops.get(i).map_or(n, |&p| owner(p));
        let (mut ii, mut di) = (0usize, 0usize);
        let mut next = 0usize; // first vertex not yet written
        loop {
            let t = owner_at(&dins, ii).min(owner_at(&ddel, di));
            // Untouched span `next..t`: shift = new offset − old offset,
            // in wrapping `u32` arithmetic (every result fits in `u32`).
            let shift = offsets[next].wrapping_sub(old_off[next]);
            let fwd_shift = fwd_offsets[next].wrapping_sub(old_fwd[next]);
            adj.extend_from_slice(&self.adj[old_off[next] as usize..old_off[t] as usize]);
            offsets.extend(old_off[next + 1..=t].iter().map(|&o| o.wrapping_add(shift)));
            fwd_offsets.extend(
                old_fwd[next + 1..=t]
                    .iter()
                    .map(|&o| o.wrapping_add(fwd_shift)),
            );
            if t == n {
                break;
            }
            // Touched vertex `t`: merge-union old ∪ inserts, minus
            // deletes; all three runs sorted, so the output stays sorted.
            // Counting forward neighbors (> t) on the way out replaces
            // the builder's partition_point.
            let gv = t as u32;
            let old = &self.adj[old_off[t] as usize..old_off[t + 1] as usize];
            let istart = ii;
            while ii < dins.len() && owner(dins[ii]) == t {
                ii += 1;
            }
            let dstart = di;
            while di < ddel.len() && owner(ddel[di]) == t {
                di += 1;
            }
            let add = &dins[istart..ii];
            let drop_run = &ddel[dstart..di];
            let (mut oi, mut ai, mut ki) = (0usize, 0usize, 0usize);
            let mut fwd_count = 0u32;
            while oi < old.len() || ai < add.len() {
                let take_old = ai >= add.len() || (oi < old.len() && old[oi] <= add[ai] as u32);
                let x = if take_old {
                    let x = old[oi];
                    oi += 1;
                    // Insert of an existing edge: drop the dup.
                    if ai < add.len() && add[ai] as u32 == x {
                        ai += 1;
                    }
                    x
                } else {
                    let x = add[ai] as u32;
                    ai += 1;
                    x
                };
                while ki < drop_run.len() && (drop_run[ki] as u32) < x {
                    ki += 1;
                }
                if ki < drop_run.len() && drop_run[ki] as u32 == x {
                    ki += 1; // deleted
                    continue;
                }
                adj.push(x);
                if x > gv {
                    fwd_count += 1;
                }
            }
            offsets.push(adj.len() as u32);
            fwd_offsets.push(fwd_offsets[t] + fwd_count);
            next = t + 1;
        }
        exec.recycle_u64(dins);
        exec.recycle_u64(ddel);
        debug_assert_eq!(adj.len(), new_directed);
        Ok(Graph {
            n,
            offsets: OffsetArray::U32(offsets),
            adj,
            fwd_offsets: OffsetArray::U32(fwd_offsets),
        })
    }

    /// The fallback: materialize the mutated canonical edge list and run
    /// the ordinary from-scratch build (which independently decides
    /// offset width, exactly as it would cold).
    fn rebuild_with_delta(&self, ins: &[u64], del: &[u64], exec: &ExecutorConfig) -> Graph {
        let mut merged = exec.take_u64(self.num_edges() + ins.len());
        let mut ai = 0usize;
        let mut ki = 0usize;
        for u in 0..self.n as VertexId {
            for &w in self.forward_neighbors(u) {
                let p = ((u as u64) << 32) | w as u64;
                while ai < ins.len() && ins[ai] < p {
                    merged.push(ins[ai]);
                    ai += 1;
                }
                if ai < ins.len() && ins[ai] == p {
                    ai += 1; // already present
                }
                while ki < del.len() && del[ki] < p {
                    ki += 1;
                }
                if ki < del.len() && del[ki] == p {
                    ki += 1;
                    continue; // deleted
                }
                merged.push(p);
            }
        }
        merged.extend_from_slice(&ins[ai..]);
        let mut b = GraphBuilder::with_capacity_in(self.n, merged.len(), exec);
        b.extend_packed(&merged);
        exec.recycle_u64(merged);
        b.build_with(exec)
    }

    /// Recycles this graph's CSR arrays into the executor's scratch
    /// arena (a no-op without one). The steady-state partner of
    /// [`apply_delta_with`](Self::apply_delta_with): recycling
    /// generation `g` stocks the arena the rebuild of generation `g + 2`
    /// draws from, so a session's update loop stops allocating.
    pub fn recycle(self, exec: &ExecutorConfig) {
        exec.recycle_u32(self.adj);
        if let OffsetArray::U32(v) = self.offsets {
            exec.recycle_u32(v);
        }
        if let OffsetArray::U32(v) = self.fwd_offsets {
            exec.recycle_u32(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::BUILD_VERTEX_CHUNK;

    /// From-scratch reference: the mutated edge list through the
    /// ordinary builder.
    fn reference(g: &Graph, delta: &GraphDelta, exec: &ExecutorConfig) -> Graph {
        let (ins, del) = delta.normalized(g.num_vertices()).unwrap();
        let mut edges: Vec<(VertexId, VertexId)> = g
            .edges()
            .iter()
            .map(|e| (e.u(), e.v()))
            .filter(|&(u, v)| !del.contains(&Edge::new(u, v)))
            .collect();
        edges.extend(ins.iter().map(|e| (e.u(), e.v())));
        let mut b = GraphBuilder::new(g.num_vertices());
        for (u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b.build_with(exec)
    }

    #[test]
    fn merge_matches_a_from_scratch_build() {
        let g = generators::gnp(200, 0.05, 42).unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 199).unwrap();
        delta.insert_edge(5, 7).unwrap();
        delta.delete_edge(1, 3).unwrap(); // may or may not exist
        for e in g.edges().iter().take(4) {
            delta.delete_edge(e.u(), e.v()).unwrap();
        }
        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(3),
        ] {
            let merged = g.apply_delta_with(&delta, &exec).unwrap();
            assert_eq!(merged, reference(&g, &delta, &exec));
            assert!(!merged.csr_offsets().is_wide());
        }
    }

    /// Three `BUILD_VERTEX_CHUNK` ranges, with ops on both sides of each
    /// boundary, a vertex that loses every edge, an isolated vertex that
    /// gains two, and a run of consecutive touched vertices.
    #[test]
    fn merge_across_range_boundaries_matches_a_from_scratch_build() {
        let c = BUILD_VERTEX_CHUNK as VertexId;
        let n = 2 * BUILD_VERTEX_CHUNK + 17;
        let last = n as VertexId - 1;
        let isolated = c + 2;
        // Paths of three plus chords, so every boundary vertex has edges;
        // `isolated` gets none.
        let mut b = GraphBuilder::new(n);
        for v in 0..last {
            let path = (v % 3 != 2).then_some(v + 1);
            let chord = (v % 7 == 0).then_some((v * 13 + 5) % last);
            for w in path.into_iter().chain(chord) {
                if w != v && v != isolated && w != isolated {
                    b.add_edge(v, w).unwrap();
                }
            }
        }
        let g = b.build();
        assert_eq!(g.degree(isolated), 0);
        let lonely = 4 * c / 3; // every edge of it is deleted below
        assert!(g.degree(lonely) > 0);

        let mut delta = GraphDelta::new();
        for &v in &[0, c - 1, c, 2 * c - 1, 2 * c, last] {
            delta.insert_edge(v, (v + c / 2) % n as VertexId).unwrap();
            if let Some(&w) = g.neighbors(v).first() {
                delta.delete_edge(v, w).unwrap();
            }
        }
        for &w in g.neighbors(lonely) {
            delta.delete_edge(lonely, w).unwrap();
        }
        delta.insert_edge(isolated, 7).unwrap();
        delta.insert_edge(isolated, last - 3).unwrap();
        for v in c + 100..c + 110 {
            delta.insert_edge(v, v + 5000).unwrap();
        }

        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(3),
        ] {
            let merged = g.apply_delta_with(&delta, &exec).unwrap();
            assert_eq!(merged, reference(&g, &delta, &exec));
            assert_eq!(merged.degree(lonely), 0);
            assert_eq!(merged.degree(isolated), 2);
        }
    }

    #[test]
    fn last_op_wins_delete_then_reinsert() {
        let g = generators::gnp(50, 0.2, 7).unwrap();
        let e = g.edges().iter().next().unwrap();
        let mut delta = GraphDelta::new();
        delta.delete_edge(e.u(), e.v()).unwrap();
        delta.insert_edge(e.v(), e.u()).unwrap(); // same edge, flipped
        let merged = g.apply_delta(&delta).unwrap();
        assert_eq!(merged, g, "delete-then-reinsert is the identity");

        let mut delta = GraphDelta::new();
        delta.insert_edge(e.u(), e.v()).unwrap();
        delta.delete_edge(e.u(), e.v()).unwrap();
        let merged = g.apply_delta(&delta).unwrap();
        assert!(!merged.has_edge(e.u(), e.v()), "insert-then-delete deletes");
    }

    #[test]
    fn rejects_self_loops_and_out_of_range() {
        let g = Graph::empty(4);
        let mut delta = GraphDelta::new();
        assert!(matches!(
            delta.insert_edge(2, 2),
            Err(GraphError::SelfLoop { vertex: 2 })
        ));
        assert!(matches!(
            delta.delete_edge(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        delta.insert_edge(1, 9).unwrap(); // range checked at apply
        assert!(matches!(
            g.apply_delta(&delta),
            Err(GraphError::VertexOutOfRange { vertex: 9, n: 4 })
        ));
    }

    #[test]
    fn noop_ops_and_duplicates_wash_out() {
        let g = generators::gnp(80, 0.1, 3).unwrap();
        let present = g.edges().iter().next().unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(present.u(), present.v()).unwrap(); // already there
        delta.insert_edge(0, 79).unwrap();
        delta.insert_edge(0, 79).unwrap(); // duplicate insert
        delta.delete_edge(40, 41).unwrap(); // likely absent
        let merged = g.apply_delta(&delta).unwrap();
        assert_eq!(merged, reference(&g, &delta, &ExecutorConfig::sequential()));
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = generators::gnp(64, 0.1, 11).unwrap();
        assert_eq!(g.apply_delta(&GraphDelta::new()).unwrap(), g);
    }

    #[test]
    fn wide_graphs_take_the_rebuild_path() {
        let mut b = GraphBuilder::new(6);
        b.force_wide_offsets();
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        assert!(g.csr_offsets().is_wide());
        let mut delta = GraphDelta::new();
        delta.insert_edge(3, 4).unwrap();
        delta.delete_edge(0, 1).unwrap();
        let merged = g.apply_delta(&delta).unwrap();
        assert!(merged.has_edge(3, 4));
        assert!(!merged.has_edge(0, 1));
        // The fallback builds cold, which picks the narrow width.
        assert!(!merged.csr_offsets().is_wide());
    }

    #[test]
    fn pooled_rebuild_reuses_the_arena() {
        let pool = mmvc_substrate::ScratchPool::new();
        let exec = ExecutorConfig::sequential().with_scratch(&pool);
        let g = generators::gnp(3000, 0.01, 5).unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 2999).unwrap();
        // Warm-up: populate the arena with one rebuild + recycle.
        let warm = g.apply_delta_with(&delta, &exec).unwrap();
        warm.recycle(&exec);
        pool.reset_stats();
        let again = g.apply_delta_with(&delta, &exec).unwrap();
        let stats = pool.stats();
        assert_eq!(
            stats.allocations, 0,
            "a warm-arena rebuild allocates no fresh buffers: {stats:?}"
        );
        again.recycle(&exec);
    }
}

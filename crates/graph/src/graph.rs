//! The core immutable graph type and its builder.
//!
//! [`Graph`] is a simple (no self-loops, no parallel edges), undirected graph
//! stored in compressed sparse row (CSR) form: a flat neighbor array plus
//! per-vertex offsets. Neighbor lists are sorted, which gives `O(log d)`
//! adjacency tests and cache-friendly iteration — the access pattern every
//! algorithm in this workspace is built around.
//!
//! # Memory model
//!
//! The CSR arrays are the *only* owned representation (see DESIGN.md §2b):
//!
//! * `offsets` — `n + 1` entries; neighbors of `v` live at
//!   `adj[offsets[v]..offsets[v+1]]`;
//! * `adj` — `2m` vertex ids, each undirected edge stored twice, per-vertex
//!   sorted;
//! * `fwd_offsets` — `n + 1` entries of *forward-edge* prefix sums:
//!   `fwd_offsets[v]` counts canonical edges `{a, b}`, `a < b`, with `a < v`.
//!
//! Both offset arrays are `Vec<u32>`: their values are bounded by the
//! `2m` directed entries of `adj`, and the builder and the delta merge
//! refuse, with [`GraphError::InvalidParameter`], any graph of more than
//! `u32::MAX` directed entries. Every graph this workspace can hold in
//! memory fits, at half the bytes (and half the cache lines) of a
//! `Vec<usize>` layout.
//!
//! The canonical sorted edge list (`u < v`, lexicographic) is **not** stored.
//! [`Graph::edges`] returns an [`EdgesView`] that derives it on demand from
//! the CSR arrays: the forward neighbors of `v` (those `> v`) are a suffix of
//! `v`'s sorted neighbor slice, and `fwd_offsets` ranks them globally, giving
//! `O(1)` sequential iteration, `O(log n)` random access
//! ([`EdgesView::get`]), and `O(log d)` rank queries
//! ([`EdgesView::index_of`]) — without the `8m`-byte owned copy the seed
//! representation carried next to the `16m`-byte CSR.
//!
//! Construction goes through [`GraphBuilder`], which validates endpoints,
//! rejects self-loops, and deduplicates parallel edges. Its one assembler
//! is a counting sort over fixed vertex ranges (degree count → prefix
//! offsets → scatter, then per-vertex sort + dedup in place) that writes
//! each range straight into its slab of the final `adj`, chunked over an
//! [`ExecutorConfig`]; because every vertex's neighbor list is normalized by
//! the final sort + dedup, the result is byte-identical for `Sequential` and
//! `Threaded{k}` executors, every `k` — the substrate layer's determinism
//! contract extended to graph construction.

use crate::error::GraphError;
use mmvc_substrate::{ExecutorConfig, ScratchPool};

/// Identifier of a vertex: a dense index in `0..n`.
pub type VertexId = u32;

/// An undirected edge, canonically stored with `u() <= v()`.
///
/// # Examples
///
/// ```
/// use mmvc_graph::Edge;
/// let e = Edge::new(5, 2);
/// assert_eq!((e.u(), e.v()), (2, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
}

impl Edge {
    /// Creates an edge; endpoints are normalized so that `u() <= v()`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop).
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert!(a != b, "self-loop {{{a},{a}}} is not a valid edge");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    pub fn u(&self) -> VertexId {
        self.u
    }

    /// The larger endpoint.
    pub fn v(&self) -> VertexId {
        self.v
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            assert!(x == self.v, "vertex {x} is not an endpoint of {self:?}");
            self.u
        }
    }

    /// Returns `true` if `x` is an endpoint.
    pub fn contains(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

/// An immutable simple undirected graph in CSR representation.
///
/// # Examples
///
/// ```
/// use mmvc_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 3)?;
/// let g: Graph = b.build();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub(crate) n: usize,
    /// CSR offsets: neighbors of `v` live at
    /// `adj[offsets[v]..offsets[v+1]]`.
    pub(crate) offsets: Vec<u32>,
    /// Flat, per-vertex-sorted neighbor array (each undirected edge appears
    /// twice).
    pub(crate) adj: Vec<VertexId>,
    /// Forward-edge prefix sums: `fwd_offsets[v]` counts
    /// canonical edges `{a, b}` with `a < b` and `a < v`; `fwd_offsets[n]`
    /// is `|E|`. This is what lets [`EdgesView`] derive the canonical edge
    /// list from the CSR arrays instead of owning a second copy.
    pub(crate) fwd_offsets: Vec<u32>,
}

impl Graph {
    /// Creates an empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Builds a graph from an iterator of endpoint pairs.
    ///
    /// Duplicate edges are merged; order of endpoints is irrelevant.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`]
    /// for invalid pairs.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.fwd_offsets[self.n] as usize
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_edgeless(&self) -> bool {
        self.num_edges() == 0
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n as VertexId
    }

    /// The canonical (sorted, `u < v`) edge list, as an on-demand view over
    /// the CSR arrays — nothing is materialized.
    ///
    /// The view iterates in the same lexicographic order the owned edge
    /// list used to have, supports `O(log n)` random access and `O(log d)`
    /// rank queries, and costs zero bytes.
    pub fn edges(&self) -> EdgesView<'_> {
        EdgesView { g: self }
    }

    /// Sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} out of range (n = {})", self.n);
        let (s, e) = self.row(v);
        &self.adj[s..e]
    }

    /// The *forward* neighbors of `v`: those with id greater than `v`, a
    /// suffix of the sorted neighbor slice. These are exactly the larger
    /// endpoints of the canonical edges `{v, w}`, `w > v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn forward_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} out of range (n = {})", self.n);
        let fwd = (self.fwd_offsets[v + 1] - self.fwd_offsets[v]) as usize;
        let end = self.offsets[v + 1] as usize;
        &self.adj[end - fwd..end]
    }

    /// The bounds `(offsets[v], offsets[v + 1])` of `v`'s row in `adj`.
    #[inline]
    fn row(&self, v: usize) -> (usize, usize) {
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }

    /// The raw CSR offset array (`n + 1` entries). Together with
    /// [`csr_adjacency`](Self::csr_adjacency) this is the whole graph;
    /// exposed for zero-copy consumers and the builder-equivalence tests.
    pub fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw CSR adjacency array (`2m` entries, per-vertex sorted).
    pub fn csr_adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// Resident bytes of the CSR representation (the arrays; excludes the
    /// struct header). The figure `bench_scale` reports as graph memory.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.fwd_offsets.len() + self.adj.len()) * std::mem::size_of::<u32>()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree Δ of the graph (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|v| {
                let (s, e) = self.row(v);
                e - s
            })
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.n as f64
        }
    }

    /// Adjacency test in `O(log d)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.n || v as usize >= self.n || u == v {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Returns the subgraph induced on `keep` (`keep[v]` true ⇔ vertex kept),
    /// **preserving vertex ids** (kept vertices keep their id; dropped
    /// vertices become isolated).
    ///
    /// This is the operation the paper's simulations perform when "removing"
    /// vertices: the vertex set stays `0..n` but all edges incident to
    /// removed vertices disappear.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != n`.
    pub fn induced_subgraph_mask(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.n, "mask length must equal n");
        let edges: Vec<(VertexId, VertexId)> = self
            .edges()
            .iter()
            .filter(|e| keep[e.u() as usize] && keep[e.v() as usize])
            .map(|e| (e.u(), e.v()))
            .collect();
        Graph::from_edges(self.n, edges).expect("edges of a valid graph remain valid")
    }

    /// The line graph `L(G)`: one vertex per edge of `G`, with two vertices
    /// adjacent iff the corresponding edges share an endpoint.
    ///
    /// An MIS of `L(G)` is a *maximal matching* of `G` (Luby's classical
    /// reduction, referenced in the paper's introduction).
    pub fn line_graph(&self) -> Graph {
        let m = self.num_edges();
        // Index edges incident to each vertex.
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for (i, e) in self.edges().iter().enumerate() {
            incident[e.u() as usize].push(i as u32);
            incident[e.v() as usize].push(i as u32);
        }
        let mut b = GraphBuilder::new(m);
        for inc in &incident {
            for i in 0..inc.len() {
                for j in (i + 1)..inc.len() {
                    b.add_edge(inc[i], inc[j]).expect("line-graph edges valid");
                }
            }
        }
        b.build()
    }

    /// Total number of words needed to represent the edge list (2 per edge);
    /// the unit of the MPC memory accounting.
    pub fn edge_words(&self) -> usize {
        2 * self.num_edges()
    }

    /// The complement graph `Ḡ`: same vertices, pair adjacent iff not
    /// adjacent in `G`. Independent sets of `G` are cliques of `Ḡ`.
    ///
    /// `O(n²)`; intended for small verification graphs.
    pub fn complement(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for u in 0..self.n as VertexId {
            for v in (u + 1)..self.n as VertexId {
                if !self.has_edge(u, v) {
                    b.add_edge(u, v).expect("in range");
                }
            }
        }
        b.build()
    }

    /// Connected components as a vector `comp[v] = component id`, plus the
    /// number of components. Isolated vertices form singleton components.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let mut comp = vec![u32::MAX; self.n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s as VertexId);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }
}

/// Zero-copy view of a graph's canonical (sorted, `u < v`) edge list,
/// derived on demand from the CSR arrays — see the module docs for the
/// memory model.
///
/// Iteration is `O(1)` amortized per edge and yields edges in the same
/// lexicographic order the owned list used to have; [`get`](Self::get) is
/// `O(log n)`; [`index_of`](Self::index_of) is `O(log d)`.
///
/// # Examples
///
/// ```
/// use mmvc_graph::{Edge, Graph};
///
/// let g = Graph::from_edges(4, vec![(2, 1), (0, 3), (1, 0)])?;
/// let edges = g.edges();
/// assert_eq!(edges.len(), 3);
/// assert_eq!(edges.get(0), Edge::new(0, 1));
/// assert_eq!(edges.index_of(&Edge::new(1, 2)), Some(2));
/// let all: Vec<Edge> = edges.iter().collect();
/// assert_eq!(all, vec![Edge::new(0, 1), Edge::new(0, 3), Edge::new(1, 2)]);
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
#[derive(Clone, Copy)]
pub struct EdgesView<'g> {
    g: &'g Graph,
}

impl std::fmt::Debug for EdgesView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgesView")
            .field("len", &self.len())
            .finish()
    }
}

impl<'g> EdgesView<'g> {
    /// Number of canonical edges (`|E|`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.g.num_edges()
    }

    /// Whether the edge list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th canonical edge, in `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Edge {
        assert!(
            i < self.len(),
            "edge index {i} out of range ({})",
            self.len()
        );
        let u = self.owner_of(i);
        let fwd = self.g.forward_neighbors(u as VertexId);
        let v = fwd[i - self.g.fwd_offsets[u] as usize];
        Edge {
            u: u as VertexId,
            v,
        }
    }

    /// The canonical index of `e`, or `None` if `e` is not an edge of the
    /// graph. `O(log d)`. The inverse of [`get`](Self::get) — this is what
    /// replaced `binary_search` on the owned edge slice.
    pub fn index_of(&self, e: &Edge) -> Option<usize> {
        let u = e.u() as usize;
        if u >= self.g.n || e.v() as usize >= self.g.n {
            return None;
        }
        let fwd = self.g.forward_neighbors(e.u());
        fwd.binary_search(&e.v())
            .ok()
            .map(|k| self.g.fwd_offsets[u] as usize + k)
    }

    /// Iterator over all canonical edges, in lexicographic order.
    pub fn iter(&self) -> EdgeIter<'g> {
        self.range(0..self.len())
    }

    /// Iterator over the canonical edges with indices in `r` — the
    /// replacement for slicing the owned edge list (`edges[a..b]`).
    ///
    /// # Panics
    ///
    /// Panics if `r.end > len()` or `r.start > r.end`.
    pub fn range(&self, r: std::ops::Range<usize>) -> EdgeIter<'g> {
        assert!(
            r.start <= r.end && r.end <= self.len(),
            "edge range {r:?} out of bounds ({})",
            self.len()
        );
        let u = if r.start < r.end {
            self.owner_of(r.start)
        } else {
            0
        };
        EdgeIter {
            g: self.g,
            next: r.start,
            end: r.end,
            u,
        }
    }

    /// Materializes the edge list (for the few consumers that genuinely
    /// need an owned, indexable copy, e.g. the brute-force solvers).
    pub fn to_vec(&self) -> Vec<Edge> {
        self.iter().collect()
    }

    /// The smaller endpoint of the `i`-th canonical edge (`i < len()`).
    fn owner_of(&self, i: usize) -> usize {
        self.g.fwd_offsets.partition_point(|&o| o as usize <= i) - 1
    }
}

impl<'g> IntoIterator for EdgesView<'g> {
    type Item = Edge;
    type IntoIter = EdgeIter<'g>;

    fn into_iter(self) -> EdgeIter<'g> {
        self.iter()
    }
}

impl<'g> IntoIterator for &EdgesView<'g> {
    type Item = Edge;
    type IntoIter = EdgeIter<'g>;

    fn into_iter(self) -> EdgeIter<'g> {
        self.iter()
    }
}

/// Iterator over a range of canonical edges (see [`EdgesView`]).
#[derive(Debug, Clone)]
pub struct EdgeIter<'g> {
    g: &'g Graph,
    /// Next canonical edge index to yield.
    next: usize,
    /// One past the last index to yield.
    end: usize,
    /// Current smaller endpoint (maintained so iteration is `O(1)`
    /// amortized; only meaningful while `next < end`).
    u: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.next >= self.end {
            return None;
        }
        // Advance past vertices whose forward edges are exhausted.
        while self.g.fwd_offsets[self.u + 1] as usize <= self.next {
            self.u += 1;
        }
        let u = self.u;
        let (fs, fe) = (
            self.g.fwd_offsets[u] as usize,
            self.g.fwd_offsets[u + 1] as usize,
        );
        let pos = self.g.offsets[u + 1] as usize - (fe - fs) + (self.next - fs);
        self.next += 1;
        Some(Edge {
            u: u as VertexId,
            v: self.g.adj[pos],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}
impl std::iter::FusedIterator for EdgeIter<'_> {}

/// Staged edge counts below this assemble on the calling thread, whatever
/// the executor — spawning costs more than a build this small saves.
const PAR_BUILD_THRESHOLD: usize = 1 << 15;

/// Staged edges per bucketing task in the assembler's first pass. Fixed —
/// never a function of the thread count — per the determinism contract.
/// Raised from 2¹⁶ in PR 6: fewer, larger tasks cut per-task overhead,
/// which is what made threaded builds slower than sequential on the
/// 1-core CI host.
const BUILD_EDGE_CHUNK: usize = 1 << 17;

/// Vertices per range, the assembler's unit of parallel work. Fixed, as
/// above.
pub(crate) const BUILD_VERTEX_CHUNK: usize = 1 << 15;

/// Packs a canonical edge as `(u << 32) | v`. Lexicographic edge order
/// and packed integer order coincide, so sort + dedup on packed words is
/// byte-equivalent to sort + dedup on [`Edge`] values.
#[inline]
pub(crate) fn pack_edge(e: Edge) -> u64 {
    ((e.u as u64) << 32) | e.v as u64
}

/// The one guard on `u32` offsets: refuses a CSR of more than `u32::MAX`
/// directed entries. The builder asks it about twice its staged edge
/// count, duplicates included, and the delta merge about the merged
/// `adj` length.
pub(crate) fn check_directed(directed: usize) -> Result<(), GraphError> {
    if directed <= u32::MAX as usize {
        return Ok(());
    }
    Err(GraphError::InvalidParameter {
        name: "m",
        message: format!(
            "{directed} directed edge entries exceed the {} that u32 CSR offsets can index",
            u32::MAX
        ),
    })
}

/// Incremental builder for [`Graph`].
///
/// Deduplicates edges and validates endpoints. See [`Graph`] for an example.
///
/// [`build`](Self::build) finalizes on a default (threaded) executor;
/// [`build_with`](Self::build_with) takes an explicit [`ExecutorConfig`].
/// Below 2¹⁵ staged edges both run on the calling thread.
/// Either way the resulting graph is byte-identical — construction is
/// normalized by a per-vertex sort + dedup, so thread count can never leak
/// into the CSR arrays.
///
/// Edges are staged as packed `(u << 32) | v` words, which lets the
/// staging buffer itself come from (and return to) a
/// [`ScratchPool`] — see
/// [`with_capacity_in`](Self::with_capacity_in). A warm pool makes
/// repeated builds allocate essentially nothing beyond the final CSR
/// arrays. Staging more than `u32::MAX / 2` edges, duplicates included,
/// is refused: the offsets are `u32`.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Staged edges, packed `(u << 32) | v` with `u < v` (canonical).
    edges: Vec<u64>,
    /// Arena the staging buffer came from (and returns to after the
    /// build), when the builder was created via `with_capacity_in`.
    pool: Option<ScratchPool>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            pool: None,
        }
    }

    /// Creates a builder with capacity for `m` edges. Generators pass their
    /// exact (or expected) edge counts here so large builds never reallocate
    /// the staging buffer.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            pool: None,
        }
    }

    /// Like [`with_capacity`](Self::with_capacity), but the staging buffer
    /// is drawn from `exec`'s scratch arena (when one is attached) and
    /// recycled into it when the build completes — so repeated builds of
    /// similarly-sized graphs reuse one staging allocation.
    pub fn with_capacity_in(n: usize, m: usize, exec: &ExecutorConfig) -> Self {
        GraphBuilder {
            n,
            edges: exec.take_u64(m),
            pool: exec.scratch().cloned(),
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Duplicates are tolerated (merged at [`build`](Self::build) time).
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidParameter`] if `u32::MAX / 2` edges are
    ///   already staged.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        if u as usize >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v as usize >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.stage(pack_edge(Edge::new(u, v)))?;
        Ok(self)
    }

    /// Bulk-stages already-constructed edges (the generators' parallel
    /// chunks land here). Every [`Edge`] is self-loop-free by construction,
    /// so only the larger endpoint needs a range check.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] on the first out-of-range endpoint,
    /// or [`GraphError::InvalidParameter`] on the first edge past
    /// `u32::MAX / 2` staged (edges before either stay staged).
    pub fn extend_edges<I>(&mut self, edges: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        for e in edges {
            if e.v() as usize >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: e.v(),
                    n: self.n,
                });
            }
            self.stage(pack_edge(e))?;
        }
        Ok(self)
    }

    /// Bulk-stages pre-packed canonical edges (`(u << 32) | v`, `u < v`,
    /// `v < n`) — the generators' pooled fast path. Invariants are the
    /// caller's responsibility; debug builds audit them.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the staged total would pass
    /// `u32::MAX / 2` edges (nothing is staged then).
    pub(crate) fn extend_packed(&mut self, packed: &[u64]) -> Result<(), GraphError> {
        debug_assert!(packed.iter().all(|&p| {
            let (u, v) = ((p >> 32) as u32, p as u32);
            u < v && (v as usize) < self.n
        }));
        check_directed(2 * (self.edges.len() + packed.len()))?;
        self.edges.extend_from_slice(packed);
        Ok(())
    }

    /// Stages one packed edge, unless it would pass the `u32` offset bound.
    #[inline]
    fn stage(&mut self, p: u64) -> Result<(), GraphError> {
        check_directed(2 * (self.edges.len() + 1))?;
        self.edges.push(p);
        Ok(())
    }

    /// Finalizes into an immutable [`Graph`], deduplicating edges and
    /// building the CSR arrays: on the calling thread below 2¹⁵ staged
    /// edges, otherwise on [`ExecutorConfig::default`].
    pub fn build(self) -> Graph {
        if self.edges.len() < PAR_BUILD_THRESHOLD {
            return self.assemble(&ExecutorConfig::sequential());
        }
        self.assemble(&ExecutorConfig::default())
    }

    /// Finalizes on an explicit executor. `Sequential` and `Threaded{k}`
    /// produce byte-identical graphs for every `k`: chunk boundaries are
    /// fixed (never thread-count-dependent) and every vertex's neighbor
    /// list is normalized by a final sort + dedup, so scatter order washes
    /// out entirely.
    pub fn build_with(self, exec: &ExecutorConfig) -> Graph {
        let _span = exec
            .telemetry()
            .span("csr.build")
            .with_arg("n", self.n as u64)
            .with_arg("staged_edges", self.edges.len() as u64);
        self.assemble(exec)
    }

    /// The assembler: a counting sort over fixed vertex ranges that writes
    /// each range straight into its slab of the final `adj`.
    ///
    /// 1. When `n` spans more than one range, each fixed-size chunk of the
    ///    staged edges buckets both directions of its edges by the owner's
    ///    range into its own slab of one flat (pooled) buffer, with a
    ///    per-range cursor so every store is sequential within its range
    ///    segment. A single range skips this pass.
    /// 2. One task per range reads its directed pairs — its bucket
    ///    segments, or with one range the staged pairs themselves — and
    ///    counts degrees (duplicates included), scatters the neighbours
    ///    into its slab of `adj`, then sorts and dedups each row in place.
    ///    `adj` is one fresh zeroed allocation of `2 × staged` entries, at
    ///    slab bounds taken from pass 1's counts; the scatter faults its
    ///    pages in either way.
    /// 3. One sequential pass writes both offset arrays from the ranges'
    ///    row bounds and forward counts, and closes the gaps duplicates
    ///    left with `copy_within` (without duplicates it moves nothing;
    ///    when it moved something, `adj` is shrunk to fit).
    ///
    /// Below [`PAR_BUILD_THRESHOLD`] staged edges every pass runs on the
    /// calling thread. The staging buffer goes back to the arena it was
    /// taken from, and only to it.
    ///
    /// Determinism: chunk and range boundaries depend only on the input
    /// (never the thread count), results are indexed by range, and the
    /// per-vertex sort + dedup normalizes any scatter-order variation —
    /// so the output is byte-identical across executors.
    fn assemble(self, exec: &ExecutorConfig) -> Graph {
        let GraphBuilder {
            n,
            edges: staged,
            pool,
        } = self;
        let local;
        let exec = if staged.len() < PAR_BUILD_THRESHOLD {
            local = match exec.scratch() {
                Some(p) => ExecutorConfig::sequential().with_scratch(p),
                None => ExecutorConfig::sequential(),
            };
            &local
        } else {
            exec
        };
        let send_home = |staged: Vec<u64>| {
            if let Some(p) = &pool {
                p.recycle_u64(staged);
            }
        };
        let ranges = n.div_ceil(BUILD_VERTEX_CHUNK).max(1);
        let mut adj = vec![0 as VertexId; 2 * staged.len()];

        let (parts, slab_bounds) = if ranges == 1 {
            let pairs = || staged.iter().flat_map(|&p| [p, p.rotate_left(32)]);
            let part = fill_range(exec, 0, n, &mut adj, pairs);
            send_home(staged);
            (vec![part], vec![0, adj.len()])
        } else {
            // Pass 1: chunk `c` owns `directed[chunk_bounds[c]..chunk_bounds[c + 1]]`
            // and counting-sorts its directed pairs `(owner << 32) | neighbor`
            // by the owner's range; its counts locate each range's segment.
            let chunks = staged.len().div_ceil(BUILD_EDGE_CHUNK);
            let mut directed = exec.take_u64(2 * staged.len());
            directed.resize(2 * staged.len(), 0);
            let chunk_bounds: Vec<usize> = (0..=chunks)
                .map(|c| 2 * (c * BUILD_EDGE_CHUNK).min(staged.len()))
                .collect();
            let chunk_offs: Vec<Vec<u32>> =
                exec.run_slabs(&mut directed, &chunk_bounds, |c, slab| {
                    let lo = c * BUILD_EDGE_CHUNK;
                    let hi = (lo + BUILD_EDGE_CHUNK).min(staged.len());
                    let mut counts = exec.take_u32(ranges + 1);
                    counts.resize(ranges + 1, 0);
                    for &p in &staged[lo..hi] {
                        counts[(p >> 32) as usize / BUILD_VERTEX_CHUNK + 1] += 1;
                        counts[(p as u32) as usize / BUILD_VERTEX_CHUNK + 1] += 1;
                    }
                    for i in 0..ranges {
                        counts[i + 1] += counts[i];
                    }
                    let mut cursor = exec.take_u32(ranges);
                    cursor.extend_from_slice(&counts[..ranges]);
                    for &p in &staged[lo..hi] {
                        for q in [p, p.rotate_left(32)] {
                            let r = (q >> 32) as usize / BUILD_VERTEX_CHUNK;
                            slab[cursor[r] as usize] = q;
                            cursor[r] += 1;
                        }
                    }
                    exec.recycle_u32(cursor);
                    counts
                });
            // The flat buffer carries everything from here on.
            send_home(staged);

            // Pass 2: range `r`'s pairs sit in one segment per chunk, and
            // its slab of `adj` holds them all.
            let segment = |c: usize, r: usize| {
                let (cb, off) = (chunk_bounds[c], &chunk_offs[c]);
                &directed[cb + off[r] as usize..cb + off[r + 1] as usize]
            };
            let mut slab_bounds = vec![0];
            for r in 0..ranges {
                let total: usize = (0..chunks).map(|c| segment(c, r).len()).sum();
                slab_bounds.push(slab_bounds[r] + total);
            }
            let parts = exec.run_slabs(&mut adj, &slab_bounds, |r, slab| {
                let base = r * BUILD_VERTEX_CHUNK;
                let pairs = || (0..chunks).flat_map(move |c| segment(c, r)).copied();
                fill_range(exec, base, BUILD_VERTEX_CHUNK.min(n - base), slab, pairs)
            });
            exec.recycle_u64(directed);
            for off in chunk_offs {
                exec.recycle_u32(off);
            }
            (parts, slab_bounds)
        };

        // Pass 3: offsets from the ranges' row bounds and forward counts;
        // each range's compacted rows move down to where the previous
        // range's rows end.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut fwd_offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        fwd_offsets.push(0u32);
        let (mut off, mut f) = (0u32, 0u32);
        for ((rows, fwd), &lo) in parts.into_iter().zip(&slab_bounds) {
            let start = off;
            offsets.extend(rows[1..].iter().map(|&b| start + b));
            off = start + rows[rows.len() - 1];
            fwd_offsets.extend(fwd.iter().map(|&c| {
                f += c;
                f
            }));
            if lo != start as usize {
                adj.copy_within(lo..lo + (off - start) as usize, start as usize);
            }
            exec.recycle_u32(rows);
            exec.recycle_u32(fwd);
        }
        if adj.len() != off as usize {
            adj.truncate(off as usize);
            adj.shrink_to_fit();
        }
        Graph {
            n,
            offsets,
            adj,
            fwd_offsets,
        }
    }
}

/// One range's share of the assembler, for vertices `base..base + size`:
/// counts their degrees over `pairs()` (directed `(owner << 32) |
/// neighbor` words, duplicates included), scatters the neighbors into
/// `slab`, then sorts and dedups each row in place, compacting the rows
/// to the front of `slab`. Returns, in buffers from the arena, the rows'
/// bounds within `slab` after the dedup (`size + 1` entries from 0) and
/// each vertex's forward count.
fn fill_range<I, F>(
    exec: &ExecutorConfig,
    base: usize,
    size: usize,
    slab: &mut [VertexId],
    pairs: F,
) -> (Vec<u32>, Vec<u32>)
where
    F: Fn() -> I,
    I: Iterator<Item = u64>,
{
    // Row `lv` is counted at `bounds[lv + 2]`, so after the prefix sum
    // `bounds[lv + 1]` is its start: the scatter's cursor, which the
    // scatter leaves at the row's end.
    let mut bounds = exec.take_u32(size + 2);
    bounds.resize(size + 2, 0);
    pairs().for_each(|p| bounds[(p >> 32) as usize - base + 2] += 1);
    for i in 2..size + 2 {
        bounds[i] += bounds[i - 1];
    }
    pairs().for_each(|p| {
        let cursor = &mut bounds[(p >> 32) as usize - base + 1];
        slab[*cursor as usize] = p as VertexId;
        *cursor += 1;
    });
    bounds.truncate(size + 1);
    // Per-row sort + dedup, compacting front to back (the write cursor
    // never overtakes the read cursor); `bounds` follows the rows down.
    let mut fwd = exec.take_u32(size);
    let (mut s, mut w) = (0usize, 0usize);
    for lv in 0..size {
        let e = bounds[lv + 1] as usize;
        if s == e {
            bounds[lv + 1] = w as u32;
            fwd.push(0);
            continue;
        }
        slab[s..e].sort_unstable();
        let start = w;
        let mut prev = slab[s];
        slab[w] = prev;
        w += 1;
        for i in s + 1..e {
            let x = slab[i];
            if x != prev {
                slab[w] = x;
                w += 1;
                prev = x;
            }
        }
        let row = &slab[start..w];
        let gv = (base + lv) as VertexId;
        fwd.push((row.len() - row.partition_point(|&x| x <= gv)) as u32);
        bounds[lv + 1] = w as u32;
        s = e;
    }
    (bounds, fwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn petersen() -> Graph {
        // Outer 5-cycle, inner 5-star polygon, spokes.
        let mut b = GraphBuilder::new(10);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5).unwrap(); // outer
            b.add_edge(5 + i, 5 + (i + 2) % 5).unwrap(); // inner
            b.add_edge(i, 5 + i).unwrap(); // spokes
        }
        b.build()
    }

    #[test]
    fn edge_normalization_and_other() {
        let e = Edge::new(9, 4);
        assert_eq!(e.u(), 4);
        assert_eq!(e.v(), 9);
        assert_eq!(e.other(4), 9);
        assert_eq!(e.other(9), 4);
        assert!(e.contains(4) && e.contains(9) && !e.contains(5));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_self_loop_panics() {
        Edge::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_wrong_vertex_panics() {
        Edge::new(1, 2).other(3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_edgeless());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.edges().is_empty());
        assert_eq!(g.edges().iter().count(), 0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.edges().len(), 0);
    }

    #[test]
    fn petersen_structure() {
        let g = petersen();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 3, "Petersen is 3-regular");
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 3, n: 3 }
        );
        assert_eq!(
            b.add_edge(4, 0).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 4, n: 3 }
        );
        assert_eq!(
            b.add_edge(1, 1).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        );
        assert_eq!(
            b.extend_edges([Edge::new(0, 2), Edge::new(1, 3)])
                .unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 3, n: 3 }
        );
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(6, vec![(5, 0), (3, 0), (0, 1), (4, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 3, 4, 5]);
    }

    #[test]
    fn edges_view_matches_canonical_order() {
        let g = Graph::from_edges(6, vec![(5, 0), (3, 0), (0, 1), (4, 2), (2, 1)]).unwrap();
        let expect = vec![
            Edge::new(0, 1),
            Edge::new(0, 3),
            Edge::new(0, 5),
            Edge::new(1, 2),
            Edge::new(2, 4),
        ];
        assert_eq!(g.edges().to_vec(), expect);
        assert_eq!(g.edges().len(), 5);
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(g.edges().get(i), *e, "get({i})");
            assert_eq!(g.edges().index_of(e), Some(i), "index_of({e:?})");
        }
        assert_eq!(g.edges().index_of(&Edge::new(0, 2)), None);
        assert_eq!(g.edges().index_of(&Edge::new(4, 5)), None);
        // Range slicing matches the materialized slice.
        let mid: Vec<Edge> = g.edges().range(1..4).collect();
        assert_eq!(mid, expect[1..4]);
        assert_eq!(g.edges().range(2..2).count(), 0);
        // ExactSizeIterator bookkeeping.
        let mut it = g.edges().iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn forward_neighbors_are_the_larger_ones() {
        let g = Graph::from_edges(5, vec![(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        assert_eq!(g.forward_neighbors(2), &[3, 4]);
        assert_eq!(g.forward_neighbors(0), &[2]);
        assert_eq!(g.forward_neighbors(4), &[] as &[VertexId]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edges_view_get_out_of_bounds_panics() {
        petersen().edges().get(15);
    }

    #[test]
    fn csr_accessors_and_memory() {
        let g = petersen();
        assert_eq!(g.csr_offsets().len(), 11);
        assert_eq!(g.csr_adjacency().len(), 30);
        assert_eq!(
            g.memory_bytes(),
            11 * 4 + 11 * 4 + 30 * 4,
            "u32-packed offsets + fwd_offsets + adj"
        );
    }

    #[test]
    fn pooled_builder_recycles_staging_and_scratch() {
        use mmvc_substrate::ScratchPool;
        // Two identical chunked builds through one arena: the second
        // must be served almost entirely from retained buffers.
        let n = 40_000usize;
        let pool = ScratchPool::new();
        let exec = ExecutorConfig::sequential().with_scratch(&pool);
        let build = || {
            let mut b = GraphBuilder::with_capacity_in(n, 3 * (n - 1), &exec);
            for i in 0..n as u32 - 1 {
                b.add_edge(i, i + 1).unwrap();
                b.add_edge(i + 1, i).unwrap();
                b.add_edge(i, i + 1).unwrap();
            }
            b.build_with(&exec)
        };
        let g1 = build();
        let cold = pool.stats();
        assert!(cold.allocations > 0, "cold build allocates");
        pool.reset_stats();
        let g2 = build();
        let warm = pool.stats();
        assert_eq!(g1, g2);
        assert_eq!(warm.allocated_bytes, 0, "warm build reuses everything");
        assert!(warm.reuses >= cold.allocations);
    }

    #[test]
    fn build_with_executors_byte_identical() {
        // One vertex range above the threshold (> 2^15 staged edges,
        // duplicates included): the range pass reads the staged pairs
        // directly. Compare the CSR arrays across executors and against
        // an independent reference built from per-vertex neighbor sets.
        let n = 5000usize;
        let mut pairs = Vec::new();
        let mut s = 0x1234_5678_9abc_def0u64;
        for _ in 0..40_000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 33) % n as u64) as u32;
            let v = ((s >> 13) % n as u64) as u32;
            if u != v {
                pairs.push((u, v));
                // Duplicate every 5th edge to exercise dedup across chunks.
                if pairs.len() % 5 == 0 {
                    pairs.push((v, u));
                }
            }
        }
        assert!(pairs.len() >= PAR_BUILD_THRESHOLD, "need the threaded path");
        let mut rows = vec![std::collections::BTreeSet::new(); n];
        for &(u, v) in &pairs {
            rows[u as usize].insert(v);
            rows[v as usize].insert(u);
        }
        let mut offsets = vec![0u32];
        for row in &rows {
            offsets.push(offsets[offsets.len() - 1] + row.len() as u32);
        }
        let adj: Vec<VertexId> = rows.iter().flatten().copied().collect();
        let build = |exec: &ExecutorConfig| {
            let mut b = GraphBuilder::with_capacity(n, pairs.len());
            for &(u, v) in &pairs {
                b.add_edge(u, v).unwrap();
            }
            b.build_with(exec)
        };
        let reference = build(&ExecutorConfig::sequential());
        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(4),
        ] {
            let g = build(&exec);
            assert_eq!(g.csr_offsets(), &offsets[..], "{exec:?}");
            assert_eq!(g.csr_adjacency(), &adj[..], "{exec:?}");
            assert_eq!(g, reference, "{exec:?}");
        }
    }

    #[test]
    fn build_returns_staging_only_to_its_own_arena() {
        // A builder that never drew from the executor's arena must not
        // leave its staging buffer there: a long-lived arena (the serve
        // daemon's) would otherwise grow by one buffer per build.
        use mmvc_substrate::ScratchPool;
        let n = 40_000usize;
        let pool = ScratchPool::new();
        let exec = ExecutorConfig::sequential().with_scratch(&pool);
        let mut retained = Vec::new();
        for _ in 0..3 {
            let mut b = GraphBuilder::with_capacity(n, n);
            for i in 0..n as u32 {
                b.add_edge(i, (i + 1) % n as u32).unwrap();
            }
            assert_eq!(b.build_with(&exec).num_edges(), n);
            retained.push(pool.retained_bytes());
        }
        assert!(
            retained.windows(2).all(|w| w[0] == w[1]),
            "arena grew across builds: {retained:?}"
        );
    }

    #[test]
    fn offset_bound_refused_at_its_boundary() {
        // By arithmetic alone: staging asks about twice its edge count,
        // the delta merge about the merged entry count.
        let max_staged = u32::MAX as usize / 2;
        assert!(check_directed(2 * max_staged).is_ok());
        assert!(matches!(
            check_directed(2 * (max_staged + 1)),
            Err(GraphError::InvalidParameter { name: "m", .. })
        ));
        assert!(check_directed(u32::MAX as usize).is_ok());
        assert!(matches!(
            check_directed(u32::MAX as usize + 1),
            Err(GraphError::InvalidParameter { name: "m", .. })
        ));
    }

    #[test]
    fn induced_subgraph_mask_preserves_ids() {
        let g = petersen();
        let mut keep = vec![true; 10];
        keep[0] = false;
        let h = g.induced_subgraph_mask(&keep);
        assert_eq!(h.num_vertices(), 10);
        assert_eq!(h.degree(0), 0);
        assert_eq!(h.num_edges(), 15 - 3);
        assert!(!h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
    }

    #[test]
    fn line_graph_of_path() {
        // Path 0-1-2-3 has line graph = path on 3 vertices.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let l = g.line_graph();
        assert_eq!(l.num_vertices(), 3);
        assert_eq!(l.num_edges(), 2);
    }

    #[test]
    fn line_graph_of_star() {
        // Star K_{1,4}: line graph is K_4.
        let g = Graph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let l = g.line_graph();
        assert_eq!(l.num_vertices(), 4);
        assert_eq!(l.num_edges(), 6);
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, k) = g.connected_components();
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        assert_ne!(comp[5], comp[3]);
    }

    #[test]
    fn edge_words_counts() {
        let g = petersen();
        assert_eq!(g.edge_words(), 30);
    }

    #[test]
    fn complement_involution_and_counts() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let c = g.complement();
        assert_eq!(c.num_edges(), 10 - 3);
        assert!(!c.has_edge(0, 1));
        assert!(c.has_edge(0, 2));
        assert_eq!(c.complement(), g, "complement is an involution");
        // Extremes.
        assert_eq!(Graph::empty(4).complement().num_edges(), 6);
        let complete5 = Graph::empty(5).complement();
        assert_eq!(complete5.complement().num_edges(), 0);
    }
}

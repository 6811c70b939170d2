//! Builder-equivalence and scale-tier pins: the counting-sort CSR
//! constructor must be byte-identical to the historical sort+dedup build
//! path on every seeded scenario, across executors, including at the
//! million-vertex tier — and the edge-case behaviour (duplicates,
//! self-loops) must be preserved exactly.

use mmvc::graph::{scenarios, Edge, Graph, GraphBuilder, VertexId};
use mmvc::substrate::{ExecutorConfig, ScratchPool};

const SEED: u64 = 0xC0FFEE;

/// The historical build path, reimplemented verbatim: global
/// `sort_unstable + dedup` over the canonical edge list, then degree
/// count → prefix offsets → scatter (u-side in order, v-side sorted).
/// Returns `(offsets, adj)` — the byte-level CSR reference.
fn legacy_csr(n: usize, mut edges: Vec<Edge>) -> (Vec<u32>, Vec<VertexId>) {
    edges.sort_unstable();
    edges.dedup();
    let mut degree = vec![0usize; n];
    for e in &edges {
        degree[e.u() as usize] += 1;
        degree[e.v() as usize] += 1;
    }
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut adj = vec![0 as VertexId; 2 * edges.len()];
    let mut cursor = offsets.clone();
    for e in &edges {
        adj[cursor[e.u() as usize]] = e.v();
        cursor[e.u() as usize] += 1;
        adj[cursor[e.v() as usize]] = e.u();
        cursor[e.v() as usize] += 1;
    }
    for v in 0..n {
        adj[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    (offsets.into_iter().map(|o| o as u32).collect(), adj)
}

/// Raw (duplicate-laden) edges to feed both build paths: every scenario
/// edge once, plus every third edge repeated with flipped endpoints.
fn raw_edges_with_duplicates(g: &Graph) -> Vec<Edge> {
    let mut raw = Vec::with_capacity(g.num_edges() * 4 / 3 + 1);
    for (i, e) in g.edges().iter().enumerate() {
        raw.push(e);
        if i % 3 == 0 {
            raw.push(Edge::new(e.v(), e.u()));
        }
    }
    raw
}

#[test]
fn counting_sort_matches_legacy_build_on_all_seeded_scenarios() {
    // The builder-equivalence pin: for every base-tier scenario at the
    // pinned probe size, the counting-sort CSR constructor produces the
    // same bytes as the historical path, duplicates and all.
    for sc in scenarios::base() {
        let g = sc.build_with(256, SEED).unwrap();
        let raw = raw_edges_with_duplicates(&g);
        let (offsets, adj) = legacy_csr(g.num_vertices(), raw.clone());
        let mut b = GraphBuilder::with_capacity(g.num_vertices(), raw.len());
        b.extend_edges(raw).unwrap();
        let rebuilt = b.build();
        assert_eq!(rebuilt.csr_offsets(), &offsets[..], "{} offsets", sc.name);
        assert_eq!(rebuilt.csr_adjacency(), &adj[..], "{} adjacency", sc.name);
        assert_eq!(rebuilt, g, "{} graph identity", sc.name);
    }
}

#[test]
fn counting_sort_matches_legacy_build_on_chunked_path() {
    // Each side of both assembler switches — several vertex ranges or
    // one, at least 2^15 staged edges or fewer — against the legacy
    // reference under every executor:
    // * several ranges above the threshold (pass 1 buckets, threaded);
    // * several ranges below it (bucketed, on the calling thread);
    // * one range above it (no bucketing, threaded).
    for (n, staged) in [
        (70_000usize, 80_000usize),
        (70_000, 1_000),
        (1 << 15, 40_000),
    ] {
        let mut raw = Vec::new();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        while raw.len() < staged {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 33) % n as u64) as u32;
            let v = ((s >> 11) % n as u64) as u32;
            if u != v {
                raw.push(Edge::new(u, v));
                if raw.len() % 4 == 0 {
                    raw.push(Edge::new(v, u)); // cross-chunk duplicate
                }
            }
        }
        let (offsets, adj) = legacy_csr(n, raw.clone());
        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(4),
        ] {
            let mut b = GraphBuilder::with_capacity(n, raw.len());
            b.extend_edges(raw.clone()).unwrap();
            let g = b.build_with(&exec);
            assert_eq!(g.csr_offsets(), &offsets[..], "n = {n}, {exec:?}");
            assert_eq!(g.csr_adjacency(), &adj[..], "n = {n}, {exec:?}");
        }
    }
}

#[test]
fn sequential_vs_threaded_graph_equality_at_n_2_20() {
    // The scale pin: a million-vertex graph (generator + builder both on
    // their chunked paths) must be byte-identical across executors.
    let sc = scenarios::get("scale-gnp-1m").unwrap();
    let n = 1 << 20;
    let seq = sc
        .build_with_exec(n, SEED, &ExecutorConfig::sequential())
        .unwrap();
    assert_eq!(seq.num_vertices(), n);
    assert!(seq.num_edges() > 3_000_000, "average degree ~8 at n = 2^20");
    for threads in [2, 4] {
        let thr = sc
            .build_with_exec(n, SEED, &ExecutorConfig::with_threads(threads))
            .unwrap();
        assert_eq!(
            seq.csr_offsets(),
            thr.csr_offsets(),
            "offsets diverged at {threads} threads"
        );
        assert_eq!(
            seq.csr_adjacency(),
            thr.csr_adjacency(),
            "adjacency diverged at {threads} threads"
        );
    }
}

#[test]
fn warm_arena_rebuilds_allocate_zero_fresh_bytes() {
    // The scratch-arena pin behind BENCH_scale's allocation columns:
    // after one warm-up build at the widest thread count, a sequential
    // rebuild of the same workload allocates exactly zero fresh buffer
    // bytes — the pool's shelves already hold every counting/bucket/
    // staging buffer the build needs. Threaded rebuilds may race a
    // handful of concurrent takes past the shelf supply, so they get a
    // small transient margin (well under the ≥10× reduction BENCH_scale
    // asserts); everything else must come from the arena.
    let sc = scenarios::get("scale-gnp-1m").unwrap();
    let n = 1 << 17;
    let pool = ScratchPool::new();
    let warmup = sc
        .build_with_exec(
            n,
            SEED,
            &ExecutorConfig::with_threads(4).with_scratch(&pool),
        )
        .unwrap();
    let cold = pool.stats().allocated_bytes;
    assert!(cold > 0, "cold build must populate the arena");
    for threads in [1usize, 2, 4] {
        let exec = if threads == 1 {
            ExecutorConfig::sequential().with_scratch(&pool)
        } else {
            ExecutorConfig::with_threads(threads).with_scratch(&pool)
        };
        pool.reset_stats();
        let rebuilt = sc.build_with_exec(n, SEED, &exec).unwrap();
        let stats = pool.stats();
        if threads == 1 {
            assert_eq!(
                stats.allocated_bytes, 0,
                "warm sequential rebuild allocated fresh bytes \
                 ({} allocations)",
                stats.allocations
            );
        } else {
            assert!(
                10 * stats.allocated_bytes <= cold,
                "warm rebuild at {threads} threads allocated {} fresh bytes \
                 vs {cold} cold — arena not reused",
                stats.allocated_bytes
            );
        }
        assert!(stats.reuses > 0, "rebuild must draw from the arena");
        assert_eq!(rebuilt, warmup, "pooling must not change the graph");
    }
}

#[test]
fn threaded_build_never_allocates_meaningfully_more_than_sequential() {
    // The parallel-build regression pin: per-chunk buffer churn (a fresh
    // Vec per chunk per pass, roughly 2× the sequential total) is what
    // made t2/t4 slower than seq at the million-vertex tier. With the
    // arena in place a cold threaded build allocates the same set of
    // buffers as a cold sequential build, plus at most a sliver of
    // transient top-up when concurrent takes outrun the shelves — pinned
    // here at 5%, far below the churn this test exists to catch.
    let sc = scenarios::get("scale-gnp-1m").unwrap();
    let n = 1 << 17;
    let cold_bytes = |exec: ExecutorConfig| {
        let pool = ScratchPool::new();
        sc.build_with_exec(n, SEED, &exec.with_scratch(&pool))
            .unwrap();
        pool.stats().allocated_bytes
    };
    let seq = cold_bytes(ExecutorConfig::sequential());
    for threads in [2usize, 4] {
        let thr = cold_bytes(ExecutorConfig::with_threads(threads));
        assert!(
            thr <= seq + seq / 20,
            "cold build at {threads} threads allocated {thr} bytes vs {seq} sequential"
        );
    }
}

#[test]
fn duplicate_and_self_loop_edge_cases_preserved() {
    // Duplicates merge (both build paths), self-loops are rejected at
    // staging time — exactly the historical contract.
    let g = Graph::from_edges(4, vec![(0, 1), (1, 0), (0, 1), (2, 3), (3, 2)]).unwrap();
    assert_eq!(g.num_edges(), 2);

    let mut b = GraphBuilder::new(4);
    assert!(b.add_edge(2, 2).is_err(), "self-loop must be rejected");
    assert!(b.add_edge(0, 4).is_err(), "out-of-range must be rejected");

    // A duplicate-heavy chunked build still dedups to the simple graph.
    let n = 40_000usize;
    let mut raw = Vec::new();
    for i in 0..n as u32 - 1 {
        // The same path edge staged three times, in both orientations.
        raw.push(Edge::new(i, i + 1));
        raw.push(Edge::new(i + 1, i));
        raw.push(Edge::new(i, i + 1));
    }
    let mut b = GraphBuilder::with_capacity(n, raw.len());
    b.extend_edges(raw).unwrap();
    let g = b.build_with(&ExecutorConfig::with_threads(4));
    assert_eq!(g.num_edges(), n - 1, "path edges dedup to n-1");
    assert_eq!(g.max_degree(), 2);
}

#[test]
fn edge_view_is_consistent_with_csr_at_scale() {
    // The on-demand edge view must agree with the CSR arrays it is
    // derived from: count, order, random access, rank queries.
    let g = scenarios::get("scale-ba-1m")
        .unwrap()
        .build_with(30_000, SEED)
        .unwrap();
    let edges: Vec<Edge> = g.edges().iter().collect();
    assert_eq!(edges.len(), g.num_edges());
    assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "sorted, no duplicates"
    );
    for probe in [0usize, 1, edges.len() / 2, edges.len() - 1] {
        assert_eq!(g.edges().get(probe), edges[probe]);
        assert_eq!(g.edges().index_of(&edges[probe]), Some(probe));
    }
    // Range slicing agrees with the materialized list.
    let mid = edges.len() / 2;
    let ranged: Vec<Edge> = g.edges().range(mid..(mid + 100).min(edges.len())).collect();
    assert_eq!(ranged, edges[mid..(mid + 100).min(edges.len())]);
}

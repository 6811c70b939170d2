//! # mmvc-graph
//!
//! Graph substrate for the `mmvc` workspace — the from-scratch reproduction
//! of *"Improved Massively Parallel Computation Algorithms for MIS,
//! Matching, and Vertex Cover"* (Ghaffari, Gouleakis, Konrad, Mitrović,
//! Rubinfeld — PODC 2018).
//!
//! This crate provides everything the paper's algorithms assume about
//! graphs, plus the exact solvers used as ground truth by the experiment
//! harness:
//!
//! * [`Graph`] / [`GraphBuilder`] — immutable simple undirected graphs in
//!   CSR form, with id-preserving induced subgraphs (the simulations'
//!   vertex removal) and line graphs (Luby's matching-via-MIS reduction).
//! * [`generators`] — seeded `G(n,p)`, `G(n,m)`, bipartite, Chung–Lu
//!   power-law, and structured graph generators.
//! * [`scenarios`] — the named workload registry (`gnp-sparse`,
//!   `planted-matching`, `clique-stress`, …) every algorithm can be
//!   pointed at by name via the run driver and `mmvc run`.
//! * [`matching`] — validated [`matching::Matching`]s, greedy baselines,
//!   Hopcroft–Karp, and Edmonds' blossom algorithm.
//! * [`mis`] — validated independent sets and the sequential randomized
//!   greedy MIS (paper, Section 3.1).
//! * [`vertex_cover`] — validated covers, the classical 2-approximation,
//!   and exact solvers for verification.
//! * [`validate`] — the run layer's witness checks: one pass over the
//!   rows of one vertex set per check, returning the first
//!   [`validate::Violation`] in id order.
//! * [`weighted`] — edge-weighted graphs for the Corollary 1.4 experiments.
//! * [`rng`] — deterministic seeded randomness, including the stateless
//!   per-`(vertex, iteration)` hashing that lets distributed simulations
//!   share random thresholds without communication.
//!
//! # Quick example
//!
//! ```
//! use mmvc_graph::{generators, matching, mis};
//!
//! let g = generators::gnp(200, 0.05, 42)?;
//! let m = matching::greedy_maximal_matching(&g);
//! let s = mis::randomized_greedy_mis(&g, 7);
//! assert!(m.is_maximal(&g));
//! assert!(s.is_maximal(&g));
//! # Ok::<(), mmvc_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod error;
mod graph;

pub mod generators;
pub mod io;
pub mod matching;
pub mod mis;
pub mod rng;
pub mod scenarios;
pub mod stats;
pub mod validate;
pub mod vertex_cover;
pub mod weighted;

pub use delta::GraphDelta;
pub use error::GraphError;
pub use graph::{Edge, EdgeIter, EdgesView, Graph, GraphBuilder, VertexId};

#[cfg(test)]
mod proptests {
    use crate::{
        generators, io, matching, mis, scenarios, vertex_cover, Graph, GraphBuilder, GraphDelta,
    };
    use mmvc_substrate::ExecutorConfig;
    use proptest::prelude::*;

    /// Strategy: a random graph described by (n, edge density seed).
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2usize..60, 0u64..1000, 0.0f64..0.5)
            .prop_map(|(n, seed, p)| generators::gnp(n, p, seed).expect("valid p"))
    }

    proptest! {
        #[test]
        fn greedy_matching_is_valid_and_maximal(g in arb_graph()) {
            let m = matching::greedy_maximal_matching(&g);
            for e in m.edges() {
                prop_assert!(g.has_edge(e.u(), e.v()));
            }
            prop_assert!(m.is_maximal(&g));
        }

        #[test]
        fn greedy_matching_is_half_approx(g in arb_graph()) {
            let m = matching::greedy_maximal_matching(&g).len();
            let opt = matching::blossom(&g).len();
            prop_assert!(2 * m >= opt, "greedy {m} vs optimum {opt}");
            prop_assert!(m <= opt);
        }

        #[test]
        fn randomized_mis_invariants(g in arb_graph(), seed in 0u64..100) {
            let s = mis::randomized_greedy_mis(&g, seed);
            prop_assert!(s.is_independent(&g));
            prop_assert!(s.is_maximal(&g));
        }

        #[test]
        fn blossom_at_least_greedy(g in arb_graph()) {
            prop_assert!(
                matching::blossom(&g).len() >= matching::greedy_maximal_matching(&g).len()
            );
        }

        #[test]
        fn cover_vs_matching_duality(g in arb_graph()) {
            // Any vertex cover is at least any matching size.
            let c = vertex_cover::two_approx_vertex_cover(&g);
            prop_assert!(c.covers(&g));
            let mm = matching::blossom(&g).len();
            prop_assert!(c.len() >= mm);
            prop_assert!(c.len() <= 2 * mm.max(1) || g.is_edgeless());
        }

        #[test]
        fn induced_subgraph_mask_never_grows(g in arb_graph(), bits in proptest::collection::vec(any::<bool>(), 2..60)) {
            let mut keep = bits;
            keep.resize(g.num_vertices(), false);
            let h = g.induced_subgraph_mask(&keep);
            prop_assert!(h.num_edges() <= g.num_edges());
            prop_assert_eq!(h.num_vertices(), g.num_vertices());
            for e in h.edges() {
                prop_assert!(g.has_edge(e.u(), e.v()));
                prop_assert!(keep[e.u() as usize] && keep[e.v() as usize]);
            }
        }

        #[test]
        fn rebuilds_are_byte_identical_on_base_scenarios(
            idx in 0usize..64,
            n in 16usize..200,
            seed in 0u64..500
        ) {
            // Rebuilding a graph from its own canonical edge list gives
            // back the same graph on every base scenario.
            let base: Vec<_> = scenarios::base().collect();
            let sc = base[idx % base.len()];
            let g = sc.build_with(n, seed).expect("base scenario builds");
            let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
            b.extend_edges(g.edges().iter()).expect("in range");
            prop_assert_eq!(&b.build(), &g, "{} rebuild diverged from original", sc.name);
        }

        #[test]
        fn apply_delta_matches_from_scratch_on_base_scenarios(
            idx in 0usize..64,
            n in 16usize..160,
            seed in 0u64..500,
            churn in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..24)
        ) {
            // The delta-merge contract: `apply_delta` must be
            // byte-identical to a from-scratch build of the mutated edge
            // list on every base scenario, under Sequential and
            // Threaded{2,4} alike. The churn vector mixes inserts and
            // deletes, including ops targeting absent/present edges, so
            // no-op washing is exercised too.
            let base: Vec<_> = scenarios::base().collect();
            let sc = base[idx % base.len()];
            let g = sc.build_with(n, seed).expect("base scenario builds");
            let nv = g.num_vertices() as u32;
            let mut delta = GraphDelta::new();
            for (a, b, insert) in churn {
                let (a, b) = (a % nv, b % nv);
                if a == b { continue; }
                if insert {
                    delta.insert_edge(a, b).expect("no self-loop");
                } else {
                    delta.delete_edge(a, b).expect("no self-loop");
                }
            }
            let (ins, del) = delta.normalized(g.num_vertices()).expect("in range");
            let mut edges: Vec<_> = g.edges().iter()
                .filter(|e| !del.contains(e))
                .collect();
            edges.extend(ins.iter().copied());
            for exec in [
                ExecutorConfig::sequential(),
                ExecutorConfig::with_threads(2),
                ExecutorConfig::with_threads(4),
            ] {
                let merged = g.apply_delta_with(&delta, &exec).expect("in range");
                let mut b = GraphBuilder::with_capacity(g.num_vertices(), edges.len());
                b.extend_edges(edges.iter().copied()).expect("in range");
                let scratch = b.build_with(&exec);
                prop_assert_eq!(merged.csr_offsets(), scratch.csr_offsets(),
                    "{} offsets diverged", sc.name);
                prop_assert_eq!(merged.csr_adjacency(), scratch.csr_adjacency(),
                    "{} adjacency diverged", sc.name);
                prop_assert_eq!(&merged, &scratch, "{} diverged from scratch", sc.name);
            }
        }

        #[test]
        fn line_graph_mis_is_matching(seed in 0u64..50) {
            // MIS of L(G) ↦ maximal matching of G (the classical reduction).
            let g = generators::gnp(20, 0.2, seed).expect("valid p");
            let l = g.line_graph();
            let s = mis::randomized_greedy_mis(&l, seed);
            let pairs: Vec<_> = s.members().iter()
                .map(|&i| { let e = g.edges().get(i as usize); (e.u(), e.v()) })
                .collect();
            let m = matching::Matching::new(&g, pairs).expect("independent edges are a matching");
            prop_assert!(m.is_maximal(&g));
        }

        #[test]
        fn edge_list_reader_never_panics(
            raw in proptest::collection::vec(any::<u8>(), 0..256),
            lines in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..8)
        ) {
            // Arbitrary bytes, and documents assembled from the format's
            // own pieces so that headers, edges and bad ids actually occur.
            const IDS: [&str; 8] =
                ["0", "1", "7", "65535", "65536", "4294967295", "18446744073709551615", "x"];
            let id = |b: u8| IDS[b as usize % IDS.len()];
            let doc: String = lines
                .iter()
                .map(|&(kind, a, b)| match kind % 4 {
                    0 => format!("# vertices: {}\n", id(b)),
                    1 | 2 => format!("{} {}\n", id(a), id(b)),
                    _ => format!("{}\n", id(a)),
                })
                .collect();
            for bytes in [raw.as_slice(), doc.as_bytes()] {
                if let Ok(g) = io::read_edge_list_capped(bytes, Some(1 << 16)) {
                    let mut buf = Vec::new();
                    io::write_edge_list(&g, &mut buf).expect("writes to a Vec");
                    prop_assert_eq!(io::read_edge_list(buf.as_slice()).expect("round-trips"), g);
                }
            }
        }
    }
}

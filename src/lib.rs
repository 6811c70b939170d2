//! # mmvc — MIS, Matching, and Vertex Cover in Massively Parallel Computation
//!
//! A from-scratch Rust reproduction of **"Improved Massively Parallel
//! Computation Algorithms for MIS, Matching, and Vertex Cover"**
//! (Ghaffari, Gouleakis, Konrad, Mitrović, Rubinfeld — PODC 2018,
//! arXiv:1802.08237), including the substrates the paper assumes:
//!
//! * [`graph`] ([`mmvc_graph`]) — CSR graphs, generators, exact matching
//!   solvers (blossom, Hopcroft–Karp), validators;
//! * [`substrate`] ([`mmvc_substrate`]) — the metered simulators of the
//!   MPC model ([`substrate::mpc`]: machines × words, rounds, budget
//!   enforcement) and of CONGESTED-CLIQUE ([`substrate::clique`]: Lenzen
//!   routing), the [`Substrate`](mmvc_substrate::Substrate) trait both
//!   implement, the unified `ExecutionTrace`, and their one error type
//!   `SubstrateError`;
//! * [`core`] ([`mmvc_core`]) — the paper's algorithms: `O(log log Δ)`-round
//!   MIS (Theorem 1.1), `Central`/`Central-Rand`/`MPC-Simulation`
//!   (Section 4), Lemma 5.1 rounding, Theorem 1.2's `(2+ε)` integral
//!   matching and vertex cover, Corollary 1.3's `(1+ε)` matching,
//!   Corollary 1.4's weighted matching, plus baselines — and the unified
//!   run driver (`mmvc_core::run`): every algorithm × every named
//!   scenario (`mmvc_graph::scenarios`) through one `run(spec)` entry
//!   point with validated witnesses and machine-readable reports
//!   (`mmvc_core::json`, with trace exporters in `mmvc_core::tracefmt`);
//! * [`serve`] ([`mmvc_serve`]) — the run-serving daemon (`mmvc serve`):
//!   the driver over HTTP/1.1 with a content-addressed LRU report cache
//!   (sound because reports are deterministic).
//!
//! Reports render through `mmvc_core`'s own JSON model
//! ([`core::run::report_json`]); the experiments live in the separate
//! `mmvc-bench` crate, which this facade does not depend on.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! claimed-vs-measured results. The `examples/` directory contains
//! runnable scenarios; start with `cargo run --example quickstart`.
//!
//! ```
//! use mmvc::prelude::*;
//!
//! let g = generators::gnp(400, 0.05, 42)?;
//!
//! let mis = greedy_mpc_mis(&g, &GreedyMisConfig::new(1))?;
//! let matching = integral_matching(&g, &IntegralMatchingConfig::new(Epsilon::new(0.1)?, 2))?;
//!
//! assert!(mis.mis.is_maximal(&g));
//! assert!(matching.cover.covers(&g));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mmvc_core as core;
pub use mmvc_graph as graph;
pub use mmvc_serve as serve;
pub use mmvc_substrate as substrate;

/// Convenient single-import surface for the common workflow.
pub mod prelude {
    pub use mmvc_core::baselines::luby_mis;
    pub use mmvc_core::filtering::{filtering_maximal_matching, FilteringConfig};
    pub use mmvc_core::matching::{
        central, central_rand, integral_matching, mpc_simulation, one_plus_eps_matching,
        round_fractional, weighted_matching, AugmentConfig, FractionalMatching,
        IntegralMatchingConfig, MpcMatchingConfig, WeightedMatchingConfig,
    };
    pub use mmvc_core::mis::{clique_mis, greedy_mpc_mis, CliqueMisConfig, GreedyMisConfig};
    pub use mmvc_core::run::{
        run, run_detailed, run_on, AlgorithmKind, RunArtifacts, RunReport, RunSpec,
    };
    pub use mmvc_core::vertex_cover::{approx_min_vertex_cover, VertexCoverConfig};
    pub use mmvc_core::{CoreError, Epsilon};
    pub use mmvc_graph::{
        generators, matching, mis, scenarios, vertex_cover, weighted, Graph, GraphBuilder,
    };
    pub use mmvc_substrate::clique::CliqueNetwork;
    pub use mmvc_substrate::mpc::{Cluster, MpcConfig};
    pub use mmvc_substrate::{
        ExecutionTrace, ExecutorConfig, RoundLedger, RoundSummary, Substrate, SubstrateError,
    };
}

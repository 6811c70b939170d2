//! # mmvc-core
//!
//! From-scratch implementation of the algorithms in **"Improved Massively
//! Parallel Computation Algorithms for MIS, Matching, and Vertex Cover"**
//! (Ghaffari, Gouleakis, Konrad, Mitrović, Rubinfeld — PODC 2018,
//! arXiv:1802.08237), running on the simulated substrates of
//! [`mmvc_mpc`] and [`mmvc_clique`].
//!
//! ## What's here
//!
//! | Paper result | Entry point |
//! |---|---|
//! | Theorem 1.1 — MIS in `O(log log Δ)` MPC rounds | [`mis::greedy_mpc_mis`] |
//! | Theorem 1.1 — MIS in `O(log log Δ)` CONGESTED-CLIQUE rounds | [`mis::clique_mis`] |
//! | Lemma 4.1 — `Central` / `Central-Rand` | [`matching::central`], [`matching::central_rand`] |
//! | Lemma 4.2 — `MPC-Simulation` (fractional matching + cover) | [`matching::mpc_simulation`] |
//! | Lemma 5.1 — randomized rounding | [`matching::round_fractional`] |
//! | Theorem 1.2 — integral `(2+ε)` matching & cover | [`matching::integral_matching`] |
//! | Theorem 1.2 — vertex cover with self-certifying ratio | [`vertex_cover::approx_min_vertex_cover`] |
//! | Corollary 1.3 — `(1+ε)` matching | [`matching::one_plus_eps_matching`] |
//! | Corollary 1.4 — `(2+ε)` weighted matching | [`matching::weighted_matching`] |
//! | §4.4.5 — LMSV filtering fallback | [`filtering::filtering_maximal_matching`] |
//! | Baselines (§1.2) — Luby's MIS | [`baselines::luby_mis`] |
//!
//! ## Quick example
//!
//! ```
//! use mmvc_core::{Epsilon, matching, mis};
//! use mmvc_graph::generators;
//!
//! let g = generators::gnp(500, 0.05, 42)?;
//!
//! // MIS in O(log log Δ) simulated MPC rounds.
//! let mis = mis::greedy_mpc_mis(&g, &mis::GreedyMisConfig::new(1))?;
//! assert!(mis.mis.is_maximal(&g));
//!
//! // (2+ε)-approximate matching and vertex cover.
//! let eps = Epsilon::new(0.1)?;
//! let out = matching::integral_matching(
//!     &g,
//!     &matching::IntegralMatchingConfig::new(eps, 2),
//! )?;
//! assert!(out.cover.covers(&g));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod epsilon;
mod error;
pub mod filtering;
pub mod matching;
pub mod mis;
#[cfg(test)]
mod proptests;
pub mod run;
pub mod session;
pub mod vertex_cover;

pub use epsilon::Epsilon;
pub use error::CoreError;

/// Index-chunk granularity for executor-parallel vertex/edge scans.
///
/// Chunk boundaries depend only on the item count and this constant —
/// never on the thread count — so per-chunk results reduce to the same
/// value under any [`mmvc_substrate::ExecutorConfig`] (sequential,
/// threaded, any pool size). Large enough that a task amortises its
/// scheduling cost, small enough that mid-sized inputs still fan out.
pub(crate) const PAR_CHUNK: usize = 1024;

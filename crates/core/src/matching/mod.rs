//! Matching and vertex-cover algorithms (paper, Sections 4 and 5).
//!
//! The pipeline, bottom to top:
//!
//! 1. [`run_central`] / [`central`] / [`central_rand`] — the sequential
//!    `O(log n)`-iteration fractional-matching + vertex-cover algorithm
//!    (Sections 4.1, 4.3; Lemma 4.1).
//! 2. [`mpc_simulation`] — the `O(log log n)`-round MPC simulation
//!    (Section 4.3; Lemma 4.2), producing a `(2+O(ε))` fractional matching
//!    and vertex cover; each phase spreads the vertices over machines with
//!    [`random_vertex_partition`].
//! 3. [`round_fractional`] — the Lemma 5.1 randomized rounding to an
//!    integral matching.
//! 4. [`integral_matching`] — Theorem 1.2: iterated extraction to an
//!    integral `(2+ε)` matching plus the `(2+ε)` cover.
//! 5. [`one_plus_eps_matching`] — Corollary 1.3: `(1+ε)` via short
//!    augmenting paths.
//! 6. [`weighted_matching`] — Corollary 1.4: `(2+ε)` weighted matching via
//!    geometric weight classes.

mod augment;
mod central;
mod fractional;
mod integral;
mod mpc_sim;
mod partition;
mod rounding;
mod weighted;

pub use augment::{augmentation_pass, one_plus_eps_matching, AugmentConfig, AugmentOutcome};
pub use central::{
    central, central_rand, run_central, CentralConfig, CentralOutcome, ThresholdRule, NEVER_FROZEN,
};
pub use fractional::FractionalMatching;
pub use integral::{integral_matching, IntegralMatchingConfig, IntegralMatchingOutcome};
pub use mpc_sim::{
    mpc_simulation, MpcMatchingConfig, MpcMatchingOutcome, PhaseSchedule, SimDiagnostics,
    ThresholdMode,
};
pub use partition::random_vertex_partition;
pub use rounding::{round_fractional, SAMPLING_DAMPING};
pub use weighted::{weighted_matching, WeightedMatchingConfig, WeightedMatchingOutcome};

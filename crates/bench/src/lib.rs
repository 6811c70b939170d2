//! The experiment registry and shared table layer of the `mmvc`
//! workspace, plus the `bench_scale` and `bench_update` gates
//! (`src/bin/`).
//!
//! [`experiments`] holds every measured table of `EXPERIMENTS.md`: one
//! function per experiment, each a declaration of
//! [`mmvc_core::run::RunSpec`]s over the run driver, listed under the
//! name of its JSON sidecar in `experiments/`. The crate's `sidecars`
//! test re-runs them and compares every sidecar byte for byte:
//!
//! ```text
//! cargo test --release -p mmvc-bench --test sidecars -- --include-ignored
//! ```
//!
//! Tables render through [`Table`], and sidecars through
//! [`mmvc_core::json`], the hand-rolled (no-serde) document model. The
//! experiment index lives in `DESIGN.md` §7.

pub mod experiments;
pub mod report;

pub use report::{substrate_cells, Table, SUBSTRATE_COLUMNS};

// The repository benchmark (`perfbench/`) is the only user of these two
// re-exports; the workspace imports them from `mmvc_core`.
pub use mmvc_core::json::Json;
pub use mmvc_core::tracefmt;

/// Ratio `opt / got`, reported as the achieved approximation factor
/// (`inf` when `got` is zero but `opt` is not, 1 when both are zero).
pub fn approx_ratio(opt: f64, got: f64) -> f64 {
    if got > 0.0 {
        opt / got
    } else if opt == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Minimum of a slice (`inf` for empty input).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice (`-inf` for empty input).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(approx_ratio(10.0, 5.0), 2.0);
        assert_eq!(approx_ratio(0.0, 0.0), 1.0);
        assert_eq!(approx_ratio(3.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(max(&[2.0, 1.0, 3.0]), 3.0);
    }
}

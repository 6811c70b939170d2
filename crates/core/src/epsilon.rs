//! The approximation parameter `ε`, validated at the boundary.

use crate::error::CoreError;

/// A validated approximation parameter `ε ∈ (0, 1/10]`.
///
/// The paper's approximation guarantees are stated for "any small constant
/// `ε > 0`"; the analysis of the `Central` algorithm (Lemma 4.1) assumes
/// `ε ≤ 1/10` and the `MPC-Simulation` analysis assumes `ε < 1/50` (with
/// the remark that larger inputs may simply be reduced). We validate the
/// Lemma 4.1 domain here; callers wanting the stricter analysis regime can
/// pass a smaller value, down to the point (about `5.6·10⁻¹⁷`) where the
/// growth factor `1/(1−ε)` rounds to `1.0` and weights would never grow.
///
/// # Examples
///
/// ```
/// use mmvc_core::Epsilon;
/// let eps = Epsilon::new(0.1)?;
/// assert_eq!(eps.get(), 0.1);
/// assert!(Epsilon::new(0.2).is_err());
/// # Ok::<(), mmvc_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Largest admissible value (`1/10`, from Lemma 4.1).
    pub const MAX: f64 = 0.1;

    /// Validates `ε ∈ (0, 1/10]` with a growth factor above `1.0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidEpsilon`] outside the domain.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if !value.is_finite() {
            return Err(CoreError::InvalidEpsilon {
                value,
                message: "must be finite",
            });
        }
        if value <= 0.0 {
            return Err(CoreError::InvalidEpsilon {
                value,
                message: "must be positive",
            });
        }
        if 1.0 / (1.0 - value) <= 1.0 {
            return Err(CoreError::InvalidEpsilon {
                value,
                message: "too small: the growth factor 1/(1-eps) rounds to 1",
            });
        }
        if value > Self::MAX {
            return Err(CoreError::InvalidEpsilon {
                value,
                message: "must be at most 1/10 (Lemma 4.1 domain); reduce epsilon",
            });
        }
        Ok(Epsilon(value))
    }

    /// The raw value.
    pub fn get(&self) -> f64 {
        self.0
    }

    /// The per-iteration weight growth factor `1 / (1 − ε)`.
    pub fn growth_factor(&self) -> f64 {
        1.0 / (1.0 - self.0)
    }

    /// Number of iterations for an edge weight to grow from `from` to at
    /// least `to` under the growth factor: `ceil(log_{1/(1−ε)}(to/from))`.
    ///
    /// Returns 0 when `from >= to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is non-positive.
    pub fn iterations_to_grow(&self, from: f64, to: f64) -> usize {
        assert!(from > 0.0 && to > 0.0, "weights must be positive");
        if from >= to {
            return 0;
        }
        ((to / from).ln() / self.growth_factor().ln()).ceil() as usize
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_checks() {
        assert!(Epsilon::new(0.05).is_ok());
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(0.100001).is_err());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-0.1).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        // The growth factor rounds to 1.0 below about 5.6e-17.
        assert!(matches!(
            Epsilon::new(1e-17),
            Err(CoreError::InvalidEpsilon { .. })
        ));
        assert!(Epsilon::new(5e-17).is_err());
        assert!(Epsilon::new(6e-17).unwrap().growth_factor() > 1.0);
    }

    #[test]
    fn growth_factor() {
        let e = Epsilon::new(0.1).unwrap();
        assert!((e.growth_factor() - 1.0 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn iterations_to_grow() {
        let e = Epsilon::new(0.1).unwrap();
        // From 1/n to ~1 with n = 1000: log_{1/0.9} 1000 ≈ 65.6 → 66.
        let it = e.iterations_to_grow(1.0 / 1000.0, 1.0);
        assert_eq!(it, 66);
        assert_eq!(e.iterations_to_grow(1.0, 0.5), 0);
        // Sanity: growing that many times really reaches the target.
        let grown = (1.0 / 1000.0) * e.growth_factor().powi(it as i32);
        assert!(grown >= 1.0);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn iterations_rejects_nonpositive() {
        Epsilon::new(0.1).unwrap().iterations_to_grow(0.0, 1.0);
    }

    #[test]
    fn display() {
        assert_eq!(Epsilon::new(0.05).unwrap().to_string(), "0.05");
    }
}

//! Configuration of the simulated MPC cluster.

use crate::error::SubstrateError;

/// Parameters of a simulated MPC cluster (paper, Section 1.1.1).
///
/// A cluster has `num_machines` machines, each with `words_per_machine`
/// words of memory. One *word* is `Θ(log n)` bits and holds a vertex id or
/// an edge endpoint; an edge costs two words.
///
/// The paper's regime of interest is `S ∈ Θ(n)` (or `Θ(n / polylog n)`)
/// with `S · m = Θ(N)` where `N` is the input size; each algorithm sizes
/// its cluster from its own space factor.
///
/// # Examples
///
/// ```
/// use mmvc_substrate::mpc::MpcConfig;
/// // A graph with 10^4 vertices: S = 4n words on 16 machines.
/// let cfg = MpcConfig::new(16, 40_000)?;
/// assert_eq!(cfg.words_per_machine(), 40_000);
/// assert_eq!(cfg.num_machines(), 16);
/// # Ok::<(), mmvc_substrate::SubstrateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpcConfig {
    words_per_machine: usize,
    num_machines: usize,
}

impl MpcConfig {
    /// Creates a configuration with explicit machine count and budget.
    ///
    /// # Errors
    ///
    /// Returns [`SubstrateError::InvalidConfig`] if either parameter is
    /// zero.
    pub fn new(num_machines: usize, words_per_machine: usize) -> Result<Self, SubstrateError> {
        if num_machines == 0 {
            return Err(SubstrateError::InvalidConfig {
                substrate: "mpc",
                message: "need at least one machine".into(),
            });
        }
        if words_per_machine == 0 {
            return Err(SubstrateError::InvalidConfig {
                substrate: "mpc",
                message: "words_per_machine must be positive".into(),
            });
        }
        Ok(MpcConfig {
            words_per_machine,
            num_machines,
        })
    }

    /// Per-machine memory budget in words.
    pub fn words_per_machine(&self) -> usize {
        self.words_per_machine
    }

    /// Number of machines `m`.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_construction() {
        let c = MpcConfig::new(8, 1000).unwrap();
        assert_eq!(c.num_machines(), 8);
        assert_eq!(c.words_per_machine(), 1000);
    }

    #[test]
    fn rejects_zeroes() {
        assert!(matches!(
            MpcConfig::new(0, 10),
            Err(SubstrateError::InvalidConfig {
                substrate: "mpc",
                ..
            })
        ));
        assert!(MpcConfig::new(10, 0).is_err());
    }
}

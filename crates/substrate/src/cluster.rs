//! The simulated MPC cluster: synchronous rounds with per-machine memory
//! metering.
//!
//! The simulator does not execute machines on separate hosts — the
//! algorithms run locally — but it *meters* the model quantities exactly:
//! every word a machine receives or holds in a round is charged against its
//! budget, and the trace records rounds, loads, and total communication.
//! Exceeding a budget is a hard [`SubstrateError::LoadExceeded`] error, so
//! the paper's "O(n) memory per machine" claims are *checked*, not assumed.
//!
//! The round lifecycle itself (open/charge/close, protocol guards) is the
//! shared [`RoundLedger`]; this type adds the MPC *policy* — a slot is a
//! machine, and every charge is checked against the per-machine memory
//! budget.

use crate::config::MpcConfig;
use crate::engine::RoundLedger;
use crate::error::SubstrateError;
use crate::telemetry::Telemetry;
use crate::trace::{ExecutionTrace, RoundSummary};
use crate::Substrate;

/// A simulated MPC cluster (paper, Section 1.1.1).
///
/// Usage follows the model's structure: open a round, charge the words each
/// machine receives/holds, close the round. The convenience wrapper
/// [`Cluster::round`] scopes this with a closure.
///
/// # Examples
///
/// ```
/// use mmvc_substrate::mpc::{Cluster, MpcConfig};
/// use mmvc_substrate::Substrate;
///
/// let mut cluster = Cluster::new(MpcConfig::new(4, 1000)?);
/// cluster.round(|r| {
///     r.receive(0, 800)?; // machine 0 receives 800 words
///     r.broadcast(10)?;   // every machine receives 10 words
///     Ok(())
/// })?;
/// assert_eq!(cluster.rounds(), 1);
/// assert_eq!(cluster.max_load_words(), 810);
/// # Ok::<(), mmvc_substrate::SubstrateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    config: MpcConfig,
    ledger: RoundLedger,
}

/// Handle for charging memory within one open round; created by
/// [`Cluster::round`].
#[derive(Debug)]
pub struct RoundCtx<'a> {
    cluster: &'a mut Cluster,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    pub fn new(config: MpcConfig) -> Self {
        Cluster {
            ledger: RoundLedger::new("mpc", config.num_machines()),
            config,
        }
    }

    /// Attaches a telemetry sink: completed rounds emit spans (tagged
    /// `mpc`) when it is enabled. Callers pass the sink of the run's
    /// `ExecutorConfig`. Strictly an observer — the metered trace is
    /// identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.ledger.set_telemetry(telemetry);
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Opens a new round.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is already open.
    pub fn begin_round(&mut self) -> Result<(), SubstrateError> {
        self.ledger.begin_round()
    }

    /// Charges `words` received/held by `machine` in the open round.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::RoundProtocol`] if no round is open.
    /// * [`SubstrateError::InvalidAddress`] for an invalid machine id.
    /// * [`SubstrateError::LoadExceeded`] if the charge would exceed the
    ///   machine's budget.
    pub fn receive(&mut self, machine: usize, words: usize) -> Result<(), SubstrateError> {
        let budget = self.config.words_per_machine();
        let attempted = self.ledger.load(machine)? + words;
        if attempted > budget {
            return Err(SubstrateError::LoadExceeded {
                substrate: "mpc",
                location: format!("machine {machine}"),
                round: Some(self.ledger.current_round()),
                attempted_words: attempted,
                budget_words: budget,
            });
        }
        self.ledger.charge(machine, words)?;
        Ok(())
    }

    /// Charges `words` received by *every* machine (a broadcast).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::receive`].
    pub fn broadcast(&mut self, words: usize) -> Result<(), SubstrateError> {
        for machine in 0..self.config.num_machines() {
            self.receive(machine, words)?;
        }
        Ok(())
    }

    /// Closes the open round and records its summary.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if no round is open.
    pub fn end_round(&mut self) -> Result<RoundSummary, SubstrateError> {
        self.ledger.end_round()
    }

    /// Runs `f` inside a fresh round, closing it afterwards.
    ///
    /// If `f` fails, the round is abandoned (not recorded) and the error is
    /// propagated.
    ///
    /// # Errors
    ///
    /// Propagates protocol and budget errors from `f` or round management.
    pub fn round<T>(
        &mut self,
        f: impl FnOnce(&mut RoundCtx<'_>) -> Result<T, SubstrateError>,
    ) -> Result<T, SubstrateError> {
        self.begin_round()?;
        let mut ctx = RoundCtx { cluster: self };
        match f(&mut ctx) {
            Ok(value) => {
                self.end_round()?;
                Ok(value)
            }
            Err(e) => {
                self.ledger.abandon_round();
                Err(e)
            }
        }
    }

    /// Records `k` rounds of an abstracted constant-round primitive (e.g.
    /// the "standard techniques" of \[GSZ11\] the paper invokes for sorting /
    /// aggregation), charging `load_words` to every machine per round.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::LoadExceeded`] if `load_words` exceeds the
    /// budget; [`SubstrateError::RoundProtocol`] if a round is already
    /// open.
    pub fn charge_rounds(&mut self, k: usize, load_words: usize) -> Result<(), SubstrateError> {
        for _ in 0..k {
            self.begin_round()?;
            self.broadcast(load_words)?;
            self.end_round()?;
        }
        Ok(())
    }
}

impl Substrate for Cluster {
    fn substrate_name(&self) -> &'static str {
        "mpc"
    }

    fn execution_trace(&self) -> &ExecutionTrace {
        self.ledger.trace()
    }
}

impl RoundCtx<'_> {
    /// Charges `words` to `machine`; see [`Cluster::receive`].
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::receive`].
    pub fn receive(&mut self, machine: usize, words: usize) -> Result<(), SubstrateError> {
        self.cluster.receive(machine, words)
    }

    /// Charges a broadcast; see [`Cluster::broadcast`].
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::broadcast`].
    pub fn broadcast(&mut self, words: usize) -> Result<(), SubstrateError> {
        self.cluster.broadcast(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(MpcConfig::new(3, 100).unwrap())
    }

    fn is_round_protocol(e: &SubstrateError) -> bool {
        matches!(e, SubstrateError::RoundProtocol { .. })
    }

    #[test]
    fn basic_round_lifecycle() {
        let mut c = small();
        c.begin_round().unwrap();
        c.receive(0, 40).unwrap();
        c.receive(0, 40).unwrap();
        c.receive(2, 10).unwrap();
        let s = c.end_round().unwrap();
        assert_eq!(s.round, 1);
        assert_eq!(s.max_load_words, 80);
        assert_eq!(s.total_words, 90);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn memory_budget_enforced() {
        let mut c = small();
        c.begin_round().unwrap();
        c.receive(1, 99).unwrap();
        let err = c.receive(1, 2).unwrap_err();
        assert_eq!(
            err,
            SubstrateError::LoadExceeded {
                substrate: "mpc",
                location: "machine 1".into(),
                round: Some(1),
                attempted_words: 101,
                budget_words: 100
            }
        );
    }

    #[test]
    fn protocol_violations() {
        let mut c = small();
        assert!(is_round_protocol(&c.receive(0, 1).unwrap_err()));
        assert!(is_round_protocol(&c.end_round().unwrap_err()));
        c.begin_round().unwrap();
        assert!(is_round_protocol(&c.begin_round().unwrap_err()));
    }

    #[test]
    fn no_such_machine() {
        let mut c = small();
        c.begin_round().unwrap();
        assert_eq!(
            c.receive(3, 1).unwrap_err(),
            SubstrateError::InvalidAddress {
                substrate: "mpc",
                address: 3,
                limit: 3
            }
        );
    }

    #[test]
    fn round_closure_records_on_success() {
        let mut c = small();
        let out = c.round(|r| {
            r.receive(0, 5)?;
            Ok(7)
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn round_closure_abandons_on_failure() {
        let mut c = small();
        let out: Result<(), _> = c.round(|r| r.receive(0, 1000));
        assert!(matches!(out, Err(SubstrateError::LoadExceeded { .. })));
        assert_eq!(c.rounds(), 0, "failed round not recorded");
        // The cluster is reusable afterwards.
        c.round(|r| r.receive(0, 1)).unwrap();
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn broadcast_charges_everyone() {
        let mut c = small();
        c.round(|r| r.broadcast(30)).unwrap();
        let s = c.execution_trace().per_round()[0];
        assert_eq!(s.max_load_words, 30);
        assert_eq!(s.total_words, 90);
    }

    #[test]
    fn charge_rounds_counts() {
        let mut c = small();
        c.charge_rounds(4, 10).unwrap();
        assert_eq!(c.rounds(), 4);
        assert_eq!(c.total_words(), 4 * 3 * 10);
    }

    #[test]
    fn charge_rounds_budget_enforced() {
        let mut c = small();
        assert!(matches!(
            c.charge_rounds(1, 101),
            Err(SubstrateError::LoadExceeded { .. })
        ));
    }

    #[test]
    fn cluster_is_a_substrate() {
        let mut c = small();
        c.round(|r| {
            r.receive(0, 40)?;
            r.receive(1, 10)
        })
        .unwrap();
        c.round(|r| r.receive(2, 25)).unwrap();
        let s: &dyn Substrate = &c;
        assert_eq!(s.substrate_name(), "mpc");
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.max_load_words(), 40);
        assert_eq!(s.total_words(), 75);
    }
}

//! The shared round engine: the open-round state machine both simulated
//! substrates drive.
//!
//! [`RoundLedger`] owns the lifecycle — open a round, accumulate per-slot
//! loads, close the round into a [`RoundSummary`], reject protocol misuse.
//! The simulators ([`Cluster`](crate::mpc::Cluster),
//! [`CliqueNetwork`](crate::clique::CliqueNetwork)) keep the *policy*:
//!
//! * a **slot** is a machine (MPC) or a player (CONGESTED-CLIQUE);
//! * a **charge** is words received by / addressed to that slot in the
//!   open round;
//! * closing a round records `max_load_words = max(loads)` and
//!   `total_words = Σ loads` — the two quantities the paper's theorems
//!   bound.
//!
//! Budget enforcement stays in the simulators, which check their model's
//! capacity (machine memory, Lenzen's routing precondition) before
//! charging; the ledger itself reports only protocol misuse
//! ([`SubstrateError::RoundProtocol`]) and out-of-range slots
//! ([`SubstrateError::InvalidAddress`]).
//!
//! ```
//! use mmvc_substrate::RoundLedger;
//!
//! let mut ledger = RoundLedger::new("mpc", 4);
//! ledger.begin_round()?;
//! ledger.charge(0, 10)?;
//! ledger.charge(2, 5)?;
//! let summary = ledger.end_round()?;
//! assert_eq!(summary.round, 1);
//! assert_eq!(summary.max_load_words, 10);
//! assert_eq!(summary.total_words, 15);
//! # Ok::<(), mmvc_substrate::SubstrateError>(())
//! ```

use crate::error::SubstrateError;
use crate::telemetry::Telemetry;
use crate::trace::{ExecutionTrace, RoundSummary};
use std::time::Instant;

/// The open-round state machine shared by every metered substrate.
///
/// See the module-level docs for the mechanism/policy split. A ledger is
/// created once per simulator with a fixed `substrate` name (used in error
/// reports) and slot count, and drives the whole execution:
///
/// * [`begin_round`](Self::begin_round) / [`charge`](Self::charge) /
///   [`end_round`](Self::end_round) — the metered lifecycle;
/// * [`abandon_round`](Self::abandon_round) — drop a failed round without
///   recording it (the simulators' error paths);
/// * [`record_completed`](Self::record_completed) — account a block of
///   abstracted constant-round primitive rounds (e.g. Lenzen routing)
///   without opening them individually.
#[derive(Debug, Clone)]
pub struct RoundLedger {
    substrate: &'static str,
    slots: usize,
    trace: ExecutionTrace,
    open: Option<Vec<usize>>,
    telemetry: Telemetry,
    /// Wall-clock stamp of `begin_round`, kept only while the attached
    /// telemetry sink is enabled (out-of-band: never enters the trace).
    open_at: Option<Instant>,
}

impl RoundLedger {
    /// Creates a ledger for `slots` machines/players of the named
    /// substrate.
    pub fn new(substrate: &'static str, slots: usize) -> Self {
        RoundLedger {
            substrate,
            slots,
            trace: ExecutionTrace::new(),
            open: None,
            telemetry: Telemetry::disabled(),
            open_at: None,
        }
    }

    /// Attaches a telemetry sink: every completed round emits a span
    /// (tagged with the substrate name, with the round number and word
    /// totals as args) when the sink is enabled. Strictly an observer —
    /// the recorded [`ExecutionTrace`] is identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// The substrate name this ledger reports in errors.
    pub fn substrate(&self) -> &'static str {
        self.substrate
    }

    /// Number of slots (machines or players).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The per-round record so far (completed rounds only).
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Whether a round is currently open.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// The 1-based index of the round currently open or next to open.
    pub fn current_round(&self) -> usize {
        self.trace.rounds() + 1
    }

    /// Fails if a round is open — the precondition of whole-round
    /// primitives that account rounds as a block.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] when a round is open.
    pub fn ensure_no_open_round(&self) -> Result<(), SubstrateError> {
        if self.open.is_some() {
            return Err(SubstrateError::RoundProtocol {
                substrate: self.substrate,
                message: "round already open",
            });
        }
        Ok(())
    }

    /// Fails unless a round is open — the precondition of
    /// [`charge`](Self::charge)-like operations.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] when no round is open.
    pub fn ensure_open(&self) -> Result<(), SubstrateError> {
        if self.open.is_none() {
            return Err(SubstrateError::RoundProtocol {
                substrate: self.substrate,
                message: "operation outside an open round",
            });
        }
        Ok(())
    }

    /// Opens a new round.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is already open.
    pub fn begin_round(&mut self) -> Result<(), SubstrateError> {
        self.ensure_no_open_round()?;
        self.open = Some(vec![0; self.slots]);
        self.open_at = if self.telemetry.is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Ok(())
    }

    /// The words charged to `slot` so far in the open round.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::RoundProtocol`] if no round is open.
    /// * [`SubstrateError::InvalidAddress`] for a slot out of range.
    pub fn load(&self, slot: usize) -> Result<usize, SubstrateError> {
        self.ensure_open()?;
        let loads = self.open.as_ref().expect("checked open");
        if slot >= self.slots {
            return Err(SubstrateError::InvalidAddress {
                substrate: self.substrate,
                address: slot,
                limit: self.slots,
            });
        }
        Ok(loads[slot])
    }

    /// Charges `words` to `slot` in the open round, returning the slot's
    /// new cumulative load.
    ///
    /// The ledger enforces no budget — the simulators check their model's
    /// capacity against [`load`](Self::load) *before* charging.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::RoundProtocol`] if no round is open.
    /// * [`SubstrateError::InvalidAddress`] for a slot out of range.
    pub fn charge(&mut self, slot: usize, words: usize) -> Result<usize, SubstrateError> {
        self.ensure_open()?;
        if slot >= self.slots {
            return Err(SubstrateError::InvalidAddress {
                substrate: self.substrate,
                address: slot,
                limit: self.slots,
            });
        }
        let loads = self.open.as_mut().expect("checked open");
        loads[slot] += words;
        Ok(loads[slot])
    }

    /// Closes the open round and records its summary.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if no round is open.
    pub fn end_round(&mut self) -> Result<RoundSummary, SubstrateError> {
        let Some(loads) = self.open.take() else {
            return Err(SubstrateError::RoundProtocol {
                substrate: self.substrate,
                message: "end_round without begin_round",
            });
        };
        let summary = RoundSummary {
            round: self.trace.rounds() + 1,
            max_load_words: loads.iter().copied().max().unwrap_or(0),
            total_words: loads.iter().sum(),
        };
        self.trace.record(summary);
        if let Some(opened) = self.open_at.take() {
            self.emit_round(summary, opened);
        }
        Ok(summary)
    }

    /// Emits the `round` span and the `round.total_words` counter of one
    /// completed round; called only while telemetry is enabled.
    fn emit_round(&self, summary: RoundSummary, opened: Instant) {
        self.telemetry.record_span(
            "round",
            Some(self.substrate),
            opened,
            &[
                ("round", summary.round as u64),
                ("total_words", summary.total_words as u64),
                ("max_load_words", summary.max_load_words as u64),
            ],
        );
        self.telemetry
            .counter("round.total_words", summary.total_words as u64);
    }

    /// Drops the open round (if any) without recording it — the error
    /// path of the simulators' scoped-round helpers.
    pub fn abandon_round(&mut self) {
        self.open = None;
        self.open_at = None;
    }

    /// Records `k` completed rounds of an abstracted constant-round
    /// primitive, attributing `total_words` and a per-slot peak of
    /// `max_load_words` to the first of them (the convention for block
    /// primitives such as Lenzen routing, whose traffic the model charges
    /// as a unit). Each round emits the same telemetry as one closed by
    /// [`end_round`](Self::end_round).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is open.
    pub fn record_completed(
        &mut self,
        k: usize,
        total_words: usize,
        max_load_words: usize,
    ) -> Result<(), SubstrateError> {
        self.ensure_no_open_round()?;
        let traced = self.telemetry.is_enabled();
        for i in 0..k {
            let opened = traced.then(Instant::now);
            let (total, max_load) = if i == 0 {
                (total_words, max_load_words)
            } else {
                (0, 0)
            };
            let summary = RoundSummary {
                round: self.trace.rounds() + 1,
                max_load_words: max_load,
                total_words: total,
            };
            self.trace.record(summary);
            if let Some(opened) = opened {
                self.emit_round(summary, opened);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_records_summary() {
        let mut l = RoundLedger::new("test", 3);
        assert_eq!(l.substrate(), "test");
        assert_eq!(l.slots(), 3);
        assert_eq!(l.current_round(), 1);
        l.begin_round().unwrap();
        assert!(l.is_open());
        assert_eq!(l.charge(0, 4).unwrap(), 4);
        assert_eq!(l.charge(0, 2).unwrap(), 6);
        assert_eq!(l.charge(2, 1).unwrap(), 1);
        assert_eq!(l.load(0).unwrap(), 6);
        let s = l.end_round().unwrap();
        assert_eq!(s.round, 1);
        assert_eq!(s.max_load_words, 6);
        assert_eq!(s.total_words, 7);
        assert_eq!(l.trace().rounds(), 1);
        assert_eq!(l.current_round(), 2);
    }

    #[test]
    fn protocol_violations() {
        let mut l = RoundLedger::new("test", 2);
        assert!(matches!(
            l.charge(0, 1),
            Err(SubstrateError::RoundProtocol { .. })
        ));
        assert!(matches!(
            l.load(0),
            Err(SubstrateError::RoundProtocol { .. })
        ));
        assert!(matches!(
            l.end_round(),
            Err(SubstrateError::RoundProtocol { .. })
        ));
        l.begin_round().unwrap();
        assert!(matches!(
            l.begin_round(),
            Err(SubstrateError::RoundProtocol { .. })
        ));
        assert!(matches!(
            l.ensure_no_open_round(),
            Err(SubstrateError::RoundProtocol { .. })
        ));
        assert!(matches!(
            l.record_completed(1, 0, 0),
            Err(SubstrateError::RoundProtocol { .. })
        ));
    }

    #[test]
    fn invalid_slot() {
        let mut l = RoundLedger::new("test", 2);
        l.begin_round().unwrap();
        assert!(matches!(
            l.charge(2, 1),
            Err(SubstrateError::InvalidAddress {
                address: 2,
                limit: 2,
                ..
            })
        ));
        assert!(matches!(
            l.load(5),
            Err(SubstrateError::InvalidAddress { .. })
        ));
    }

    #[test]
    fn abandon_discards_round() {
        let mut l = RoundLedger::new("test", 1);
        l.begin_round().unwrap();
        l.charge(0, 100).unwrap();
        l.abandon_round();
        assert!(!l.is_open());
        assert_eq!(l.trace().rounds(), 0);
        // Reusable afterwards.
        l.begin_round().unwrap();
        l.end_round().unwrap();
        assert_eq!(l.trace().rounds(), 1);
    }

    #[test]
    fn record_completed_first_round_attribution() {
        let mut l = RoundLedger::new("test", 4);
        l.record_completed(3, 12, 5).unwrap();
        assert_eq!(l.trace().rounds(), 3);
        assert_eq!(l.trace().per_round()[0].total_words, 12);
        assert_eq!(l.trace().per_round()[0].max_load_words, 5);
        assert_eq!(l.trace().per_round()[1].total_words, 0);
        assert_eq!(l.trace().total_words(), 12);
        assert_eq!(l.trace().max_load_words(), 5);
    }

    #[test]
    fn rounds_emit_spans_when_telemetry_is_enabled() {
        let tel = Telemetry::recording();
        let mut l = RoundLedger::new("mpc", 2);
        l.set_telemetry(&tel);
        l.begin_round().unwrap();
        l.charge(0, 7).unwrap();
        l.charge(1, 3).unwrap();
        l.end_round().unwrap();
        // Abandoned rounds record nothing.
        l.begin_round().unwrap();
        l.abandon_round();
        let events = tel.drain();
        let span = events.iter().find(|e| e.name == "round").unwrap();
        assert_eq!(span.tag.as_deref(), Some("mpc"));
        assert!(span.args.contains(&("round", 1)));
        assert!(span.args.contains(&("total_words", 10)));
        assert!(span.args.contains(&("max_load_words", 7)));
        assert_eq!(
            events.iter().filter(|e| e.name == "round").count(),
            1,
            "one span per completed round"
        );
        // The metered trace itself is telemetry-blind.
        let mut bare = RoundLedger::new("mpc", 2);
        bare.begin_round().unwrap();
        bare.charge(0, 7).unwrap();
        bare.charge(1, 3).unwrap();
        bare.end_round().unwrap();
        assert_eq!(l.trace().per_round(), bare.trace().per_round());
    }

    #[test]
    fn block_charged_rounds_emit_one_span_each() {
        let tel = Telemetry::recording();
        let mut l = RoundLedger::new("congested-clique", 4);
        l.set_telemetry(&tel);
        l.record_completed(3, 12, 5).unwrap();
        let events = tel.drain();
        let rounds: Vec<_> = events.iter().filter(|e| e.name == "round").collect();
        assert_eq!(rounds.len(), 3, "one span per recorded round");
        assert!(rounds[0].args.contains(&("total_words", 12)));
        assert!(rounds[2].args.contains(&("round", 3)));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "round.total_words")
                .count(),
            3
        );
    }
}

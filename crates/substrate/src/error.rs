//! The one error type of the simulated substrates.
//!
//! The MPC cluster, the CONGESTED-CLIQUE network and the round ledger
//! under both report every failure as a [`SubstrateError`]; the
//! `substrate` field names the model and `location` names the machine or
//! player, so harness code handles "the substrate rejected this
//! execution" without matching on which substrate ran.

use std::error::Error;
use std::fmt;

/// A simulation failure, in the vocabulary shared by both models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubstrateError {
    /// A capacity was exceeded: a machine's per-round memory (MPC) or
    /// Lenzen's routing precondition (CONGESTED-CLIQUE).
    LoadExceeded {
        /// Which substrate rejected the execution (e.g. `"mpc"`).
        substrate: &'static str,
        /// What overflowed, e.g. `"machine 3"` or `"player 0 as
        /// receiver"`.
        location: String,
        /// The round of the violation (1-based), if attributable.
        round: Option<usize>,
        /// Words that would have been held/sent.
        attempted_words: usize,
        /// The configured capacity in words.
        budget_words: usize,
    },
    /// An operation referenced a machine/player id out of range.
    InvalidAddress {
        /// Which substrate rejected the operation.
        substrate: &'static str,
        /// The offending id.
        address: usize,
        /// Number of machines/players available.
        limit: usize,
    },
    /// An operation requiring an open round was invoked outside one, or a
    /// round was opened twice.
    RoundProtocol {
        /// Which substrate rejected the operation.
        substrate: &'static str,
        /// Description of the misuse.
        message: &'static str,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Which substrate rejected the configuration.
        substrate: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
}

impl fmt::Display for SubstrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstrateError::LoadExceeded {
                substrate,
                location,
                round,
                attempted_words,
                budget_words,
            } => {
                write!(f, "[{substrate}] {location} exceeded its capacity")?;
                if let Some(round) = round {
                    write!(f, " in round {round}")?;
                }
                write!(f, ": {attempted_words} words > budget {budget_words}")
            }
            SubstrateError::InvalidAddress {
                substrate,
                address,
                limit,
            } => write!(
                f,
                "[{substrate}] id {address} does not exist (substrate has {limit})"
            ),
            SubstrateError::RoundProtocol { substrate, message } => {
                write!(f, "[{substrate}] round protocol violation: {message}")
            }
            SubstrateError::InvalidConfig { substrate, message } => {
                write!(f, "[{substrate}] invalid configuration: {message}")
            }
        }
    }
}

impl Error for SubstrateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_details() {
        let e = SubstrateError::LoadExceeded {
            substrate: "mpc",
            location: "machine 3".into(),
            round: Some(7),
            attempted_words: 1000,
            budget_words: 100,
        };
        let s = e.to_string();
        assert!(s.contains("[mpc]") && s.contains("machine 3"));
        assert!(s.contains("round 7") && s.contains("1000"));

        let e = SubstrateError::LoadExceeded {
            substrate: "congested-clique",
            location: "player 2 as sender".into(),
            round: None,
            attempted_words: 9,
            budget_words: 4,
        };
        assert!(!e.to_string().contains("round"));

        assert!(SubstrateError::InvalidAddress {
            substrate: "mpc",
            address: 9,
            limit: 4
        }
        .to_string()
        .contains("id 9"));

        assert!(SubstrateError::RoundProtocol {
            substrate: "mpc",
            message: "round already open"
        }
        .to_string()
        .contains("already open"));

        assert!(SubstrateError::InvalidConfig {
            substrate: "congested-clique",
            message: "need at least one player".into()
        }
        .to_string()
        .contains("one player"));
    }

    #[test]
    fn is_error_trait_object() {
        let e: Box<dyn Error + Send + Sync> = Box::new(SubstrateError::RoundProtocol {
            substrate: "mpc",
            message: "x",
        });
        assert!(e.to_string().contains("x"));
    }
}

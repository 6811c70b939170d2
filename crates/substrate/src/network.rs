//! The simulated CONGESTED-CLIQUE network.
//!
//! The round lifecycle is the shared [`RoundLedger`]; this type adds the
//! clique *policy* — a slot is a player, every ordered pair of players
//! exchanges one word per round, and Lenzen's routing precondition is
//! checked before an instance is charged.

use crate::engine::RoundLedger;
use crate::error::SubstrateError;
use crate::telemetry::Telemetry;
use crate::trace::ExecutionTrace;
use crate::Substrate;

/// Number of rounds charged for one invocation of Lenzen's routing scheme.
///
/// Lenzen's deterministic scheme completes any routing instance in which
/// every player sends and receives at most `n` messages in `O(1)` rounds
/// \[Len13\]; the concrete constant in his paper is 16, but since the paper
/// we reproduce only relies on "O(1)" we charge a small representative
/// constant and expose it for the experiments to report.
pub const LENZEN_ROUTING_ROUNDS: usize = 2;

/// A simulated CONGESTED-CLIQUE network (paper, Section 1.1.2).
///
/// `n` players communicate in synchronous rounds; per round, every ordered
/// pair of players may exchange `O(log n)` bits — one *word*. The
/// simulator counts rounds and words for the primitives the paper's
/// algorithms use: [`all_to_all`](Self::all_to_all),
/// [`lenzen_route`](Self::lenzen_route) and
/// [`charge_rounds`](Self::charge_rounds).
///
/// # Examples
///
/// ```
/// use mmvc_substrate::clique::CliqueNetwork;
/// use mmvc_substrate::Substrate;
///
/// let mut net = CliqueNetwork::new(8)?;
/// net.all_to_all(1)?; // every player sends one word to every other
/// assert_eq!(net.rounds(), 1);
/// assert_eq!(net.total_words(), 8 * 7);
/// # Ok::<(), mmvc_substrate::SubstrateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CliqueNetwork {
    n: usize,
    ledger: RoundLedger,
}

impl CliqueNetwork {
    /// Creates a network of `n` players with the model's one-word
    /// (`O(log n)`-bit) per-pair bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`SubstrateError::InvalidConfig`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SubstrateError> {
        if n == 0 {
            return Err(SubstrateError::InvalidConfig {
                substrate: "congested-clique",
                message: "need at least one player".into(),
            });
        }
        Ok(CliqueNetwork {
            n,
            ledger: RoundLedger::new("congested-clique", n),
        })
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.n
    }

    /// Attaches a telemetry sink: completed rounds emit spans (tagged
    /// `congested-clique`) when it is enabled. Callers pass the sink of
    /// the run's `ExecutorConfig`. Strictly an observer — the metered
    /// trace is identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.ledger.set_telemetry(telemetry);
    }

    fn check_player(&self, player: usize) -> Result<(), SubstrateError> {
        if player >= self.n {
            Err(SubstrateError::InvalidAddress {
                substrate: "congested-clique",
                address: player,
                limit: self.n,
            })
        } else {
            Ok(())
        }
    }

    /// Charges a full all-to-all exchange in which every ordered pair
    /// exchanges `words` words, one word per round. Accounting is `O(1)`
    /// per round, making this suitable for large `n` — e.g. "every vertex
    /// broadcasts its rank" in the paper's CONGESTED-CLIQUE MIS
    /// (Section 3.2).
    ///
    /// Returns the number of rounds consumed (0 when `words == 0`).
    ///
    /// # Errors
    ///
    /// Propagates the ledger's round-protocol check.
    pub fn all_to_all(&mut self, words: usize) -> Result<usize, SubstrateError> {
        let fan_in = self.n - 1;
        for _ in 0..words {
            self.ledger.record_completed(1, self.n * fan_in, fan_in)?;
        }
        Ok(words)
    }

    /// Routes an arbitrary multiset of point-to-point messages using
    /// Lenzen's deterministic routing scheme \[Len13\]: if every player sends
    /// at most `n` words and receives at most `n` words, the whole instance
    /// completes in `O(1)` rounds ([`LENZEN_ROUTING_ROUNDS`]).
    ///
    /// `messages` is a list of `(from, to, words)` triples. Returns the
    /// number of rounds consumed. A refused instance records no round.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::InvalidAddress`] for invalid ids.
    /// * [`SubstrateError::LoadExceeded`] (location `"player {p} as
    ///   sender"` or `"… as receiver"`) if a player's send or receive
    ///   total exceeds `n` words — the scheme's precondition, which the
    ///   paper's algorithms must (and do) maintain.
    pub fn lenzen_route(
        &mut self,
        messages: &[(usize, usize, usize)],
    ) -> Result<usize, SubstrateError> {
        let mut out = vec![0usize; self.n];
        let mut inc = vec![0usize; self.n];
        for &(from, to, words) in messages {
            self.check_player(from)?;
            self.check_player(to)?;
            out[from] += words;
            inc[to] += words;
        }
        let capacity = self.n;
        let overload =
            |player: usize, role: &str, attempted_words: usize| SubstrateError::LoadExceeded {
                substrate: "congested-clique",
                location: format!("player {player} as {role}"),
                round: None,
                attempted_words,
                budget_words: capacity,
            };
        for p in 0..self.n {
            if out[p] > capacity {
                return Err(overload(p, "sender", out[p]));
            }
            if inc[p] > capacity {
                return Err(overload(p, "receiver", inc[p]));
            }
        }
        // The scheme itself is abstracted: charge its constant round cost
        // and account the traffic.
        let total: usize = messages.iter().map(|&(_, _, w)| w).sum();
        let max_in = inc.iter().copied().max().unwrap_or(0);
        self.ledger
            .record_completed(LENZEN_ROUTING_ROUNDS, total, max_in)?;
        Ok(LENZEN_ROUTING_ROUNDS)
    }

    /// Charges `k` empty rounds of an abstracted constant-round local
    /// primitive (e.g. "every vertex tells its neighbors whether it joined
    /// the MIS").
    ///
    /// # Errors
    ///
    /// Propagates the ledger's round-protocol check.
    pub fn charge_rounds(&mut self, k: usize) -> Result<(), SubstrateError> {
        self.ledger.record_completed(k, 0, 0)
    }
}

impl Substrate for CliqueNetwork {
    fn substrate_name(&self) -> &'static str {
        "congested-clique"
    }

    fn execution_trace(&self) -> &ExecutionTrace {
        self.ledger.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_players_rejected() {
        let mut net = CliqueNetwork::new(3).unwrap();
        assert!(matches!(
            net.lenzen_route(&[(0, 3, 1)]),
            Err(SubstrateError::InvalidAddress {
                substrate: "congested-clique",
                address: 3,
                limit: 3
            })
        ));
        assert!(matches!(
            net.lenzen_route(&[(5, 0, 1)]),
            Err(SubstrateError::InvalidAddress { address: 5, .. })
        ));
        assert_eq!(net.rounds(), 0);
    }

    #[test]
    fn lenzen_route_within_capacity() {
        let mut net = CliqueNetwork::new(10).unwrap();
        // Each player sends 1 word to its successor: every send and
        // receive total is 1 <= n.
        let msgs: Vec<(usize, usize, usize)> = (0..10).map(|p| (p, (p + 1) % 10, 1)).collect();
        let rounds = net.lenzen_route(&msgs).unwrap();
        assert_eq!(rounds, LENZEN_ROUTING_ROUNDS);
        assert_eq!(net.rounds(), LENZEN_ROUTING_ROUNDS);
        assert_eq!(net.total_words(), 10);
    }

    #[test]
    fn lenzen_route_receiver_overload() {
        let mut net = CliqueNetwork::new(4).unwrap();
        // 3 senders each push 2 words to player 0: 6 > capacity 4.
        let msgs = vec![(1, 0, 2), (2, 0, 2), (3, 0, 2)];
        let err = net.lenzen_route(&msgs).unwrap_err();
        assert_eq!(
            err,
            SubstrateError::LoadExceeded {
                substrate: "congested-clique",
                location: "player 0 as receiver".into(),
                round: None,
                attempted_words: 6,
                budget_words: 4,
            }
        );
    }

    #[test]
    fn lenzen_route_sender_overload() {
        let mut net = CliqueNetwork::new(4).unwrap();
        let msgs = vec![(0, 1, 3), (0, 2, 2)];
        let err = net.lenzen_route(&msgs).unwrap_err();
        assert!(matches!(
            err,
            SubstrateError::LoadExceeded { ref location, round: None, .. }
                if location == "player 0 as sender"
        ));
    }

    #[test]
    fn all_to_all_accounting() {
        let mut net = CliqueNetwork::new(5).unwrap();
        let rounds = net.all_to_all(3).unwrap();
        assert_eq!(rounds, 3);
        assert_eq!(net.rounds(), 3);
        assert_eq!(net.total_words(), 5 * 4 * 3);
        assert_eq!(net.max_load_words(), 4);
        assert_eq!(net.all_to_all(0).unwrap(), 0);
    }

    #[test]
    fn charge_rounds() {
        let mut net = CliqueNetwork::new(3).unwrap();
        net.charge_rounds(5).unwrap();
        assert_eq!(net.rounds(), 5);
        assert_eq!(net.total_words(), 0);
    }

    #[test]
    fn network_is_a_substrate() {
        let mut net = CliqueNetwork::new(5).unwrap();
        net.all_to_all(2).unwrap();
        let s: &dyn Substrate = &net;
        assert_eq!(s.substrate_name(), "congested-clique");
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.total_words(), 2 * 5 * 4);
        assert_eq!(s.max_load_words(), 4, "one word from every other player");
        assert_eq!(s.execution_trace().per_round().len(), 2);
    }

    #[test]
    fn zero_players_rejected() {
        assert!(matches!(
            CliqueNetwork::new(0),
            Err(SubstrateError::InvalidConfig {
                substrate: "congested-clique",
                ..
            })
        ));
    }
}

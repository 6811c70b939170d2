//! Execution traces: the measured quantities every experiment reports.
//!
//! Both simulated substrates (MPC and CONGESTED-CLIQUE) record their
//! executions in this one format, so the harness reports
//! claimed-vs-measured numbers through one code path.

/// Summary of one completed substrate round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// 1-based round index.
    pub round: usize,
    /// Maximum words received/held by any machine or player this round.
    pub max_load_words: usize,
    /// Total words communicated across the substrate this round.
    pub total_words: usize,
}

/// The complete record of a simulated execution.
///
/// This is the primary *output* of a substrate from the experiments' point
/// of view: the paper's theorems bound [`rounds`](ExecutionTrace::rounds)
/// and [`max_load_words`](ExecutionTrace::max_load_words), and the harness
/// reports these measured values against the claims.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionTrace {
    rounds: Vec<RoundSummary>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed round.
    ///
    /// Substrate implementations call this from their `end_round` path;
    /// the summary's `round` field should be the 1-based index of the
    /// completed round.
    pub fn record(&mut self, summary: RoundSummary) {
        self.rounds.push(summary);
    }

    /// Number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round summaries, in order.
    pub fn per_round(&self) -> &[RoundSummary] {
        &self.rounds
    }

    /// The largest per-machine/per-player load observed in any round
    /// (words).
    pub fn max_load_words(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_load_words)
            .max()
            .unwrap_or(0)
    }

    /// Total words communicated over the whole execution.
    pub fn total_words(&self) -> usize {
        self.rounds.iter().map(|r| r.total_words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace() {
        let t = ExecutionTrace::new();
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.max_load_words(), 0);
        assert_eq!(t.total_words(), 0);
    }

    #[test]
    fn accumulates() {
        let mut t = ExecutionTrace::new();
        t.record(RoundSummary {
            round: 1,
            max_load_words: 10,
            total_words: 30,
        });
        t.record(RoundSummary {
            round: 2,
            max_load_words: 25,
            total_words: 25,
        });
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.max_load_words(), 25);
        assert_eq!(t.total_words(), 55);
    }
}

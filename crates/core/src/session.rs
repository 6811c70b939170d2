//! Warm-state sessions: a resident graph plus the prior run's witness
//! state, re-run incrementally after batched [`GraphDelta`] updates.
//!
//! A [`Session`] is the core-layer object behind the serve tier's
//! `POST /session` / `POST /update` endpoints: it owns the workload
//! graph, applies deltas through the CSR delta-merge rebuild
//! ([`Graph::apply_delta_with`]), and re-runs the spec's algorithm from
//! the surviving warm state instead of cold:
//!
//! * **Greedy MIS** re-seeds from the surviving independent set: members
//!   adjacent to an *inserted* edge are dropped (larger id loses, a
//!   deterministic tie-break), then greedy re-insertion runs over the
//!   **affected frontier only** — endpoints of churned edges plus
//!   neighbors of dropped members, in ascending id order.
//! * **(1+ε) matching** keeps every surviving matched pair (deleted
//!   edges are pruned as updates land) and repairs with the same
//!   [`augmentation_pass`] machinery the cold Corollary 1.3 run uses,
//!   until a pass flips nothing.
//! * Every other algorithm kind falls back to a cold run (still inside
//!   the session, so it re-warms the state).
//!
//! **Soundness of the MIS frontier restriction.** After the drop phase,
//! members are only ever *added*: a non-member can become addable only
//! if every blocker left the set or every blocking edge was deleted.
//! Blockers leave the set only in the drop phase (making the non-member
//! a neighbor-of-dropped, hence frontier) and edges disappear only via
//! the delta (making both endpoints frontier). So every potentially
//! addable vertex is scanned, and the result is again maximal; vertices
//! outside the frontier keep at least one blocker, so independence and
//! maximality both survive. The claim is not trusted: incremental
//! reports run the **same witness checks** as cold runs, once each —
//! [`validate::mis`] on the session's own member mask, which stays in
//! the session arena from run to run, and [`validate::maximal_matching`]
//! — and the same budget checks. A repaired witness that fails its
//! check is reported `valid: false` and is not kept as warm state, so
//! the next run re-warms cold. [`Session::run_incremental_with`]'s
//! `verify_cold` knob additionally cross-checks witness validity
//! against a fresh cold run (used by the test suite and `bench_update`).
//!
//! # Examples
//!
//! ```
//! use mmvc_core::run::{AlgorithmKind, RunSpec};
//! use mmvc_core::session::Session;
//! use mmvc_graph::GraphDelta;
//!
//! let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
//! spec.n = Some(256);
//! let mut session = Session::new(&spec)?;
//! let cold = session.run_cold()?;
//! assert!(cold.ok());
//!
//! let mut delta = GraphDelta::new();
//! delta.insert_edge(0, 1)?;
//! delta.delete_edge(2, 3)?;
//! let update = session.apply_update(&delta)?;
//! assert_eq!(update.generation, 1);
//!
//! let warm = session.run_incremental()?;
//! assert!(warm.ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::CoreError;
use crate::matching::augmentation_pass;
use crate::run::{
    build_workload, check_witness, log_log2, member_mask, run_detailed, AlgorithmKind, MetricValue,
    RunArtifacts, RunReport, RunSpec, SubstrateReport, WitnessStat,
};
use mmvc_graph::matching::Matching;
use mmvc_graph::validate;
use mmvc_graph::{Graph, GraphDelta, VertexId};
use mmvc_substrate::{Bitset, ExecutionTrace, ScratchPool};

/// Witness state surviving from the previous run, the seed of the next
/// incremental one.
#[derive(Debug, Clone)]
enum Warm {
    /// Membership mask of the previous maximal independent set, drawn
    /// from the session arena.
    Mis(Bitset),
    /// Matched pairs of the previous maximal matching (pruned as edge
    /// deletions land).
    Matching(Vec<(VertexId, VertexId)>),
}

/// Outcome of [`Session::apply_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The session generation after this update (starts at 0, +1 per
    /// applied delta) — the serve tier folds this into its cache key.
    pub generation: u64,
    /// Edges in the mutated graph.
    pub num_edges: usize,
    /// Normalized insert ops applied (including no-ops on present edges).
    pub inserted: usize,
    /// Normalized delete ops applied (including no-ops on absent edges).
    pub deleted: usize,
}

/// A resident workload: graph + spec + warm witness state + generation
/// counter. See the module docs for the incremental re-run semantics.
#[derive(Debug)]
pub struct Session {
    spec: RunSpec,
    label: String,
    graph: Graph,
    generation: u64,
    warm: Option<Warm>,
    /// Canonical (u < v) churned edges since the last run, the MIS
    /// frontier's raw material. Cleared by every run.
    pending_ins: Vec<(VertexId, VertexId)>,
    pending_del: Vec<(VertexId, VertexId)>,
}

impl Session {
    /// Builds the spec's workload (scenario or graph file) and takes
    /// residence. The spec's executor is upgraded to carry a scratch
    /// arena, so delta rebuilds and re-runs share one pool for the
    /// session's lifetime.
    ///
    /// # Errors
    ///
    /// Whatever [`build_workload`] reports: unknown scenario, unloadable
    /// graph file, or an admission-cap refusal.
    pub fn new(spec: &RunSpec) -> Result<Session, CoreError> {
        let mut spec = spec.clone();
        spec.executor = spec.executor.clone().ensure_scratch();
        let (graph, label) = build_workload(&spec)?;
        Ok(Session {
            spec,
            label,
            graph,
            generation: 0,
            warm: None,
            pending_ins: Vec::new(),
            pending_del: Vec::new(),
        })
    }

    /// The resident graph at the current generation.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The spec this session runs (executor scratch-upgraded).
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The workload label reports carry as their scenario name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Updates applied so far (0 for a fresh session).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether warm witness state is available (i.e. a run has completed
    /// and the algorithm kind supports incremental re-runs).
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// Applies a batched delta through the CSR delta-merge rebuild and
    /// bumps the generation. The predecessor graph's arrays are recycled
    /// into the session arena, so steady-state updates allocate ~zero
    /// fresh bytes.
    ///
    /// # Errors
    ///
    /// [`mmvc_graph::GraphError::VertexOutOfRange`] (as [`CoreError`])
    /// when the delta names a vertex outside the workload.
    pub fn apply_update(&mut self, delta: &GraphDelta) -> Result<UpdateOutcome, CoreError> {
        let telemetry = self.spec.executor.telemetry().clone();
        let mut span = telemetry.span("session.apply_update");
        let (ins, del) = delta.normalized(self.graph.num_vertices())?;
        span.arg("inserted", ins.len() as u64);
        span.arg("deleted", del.len() as u64);
        let next = self.graph.apply_delta_with(delta, &self.spec.executor)?;
        let prev = std::mem::replace(&mut self.graph, next);
        prev.recycle(&self.spec.executor);
        self.generation += 1;
        self.pending_ins.extend(ins.iter().map(|e| (e.u(), e.v())));
        self.pending_del.extend(del.iter().map(|e| (e.u(), e.v())));
        // A matching loses deleted pairs immediately; everything else is
        // repaired at run time.
        let graph = &self.graph;
        if let Some(Warm::Matching(pairs)) = &mut self.warm {
            pairs.retain(|&(u, v)| graph.has_edge(u, v));
        }
        Ok(UpdateOutcome {
            generation: self.generation,
            num_edges: self.graph.num_edges(),
            inserted: ins.len(),
            deleted: del.len(),
        })
    }

    /// Runs the spec cold on the resident graph, re-warming the witness
    /// state (for [`AlgorithmKind::GreedyMis`] and
    /// [`AlgorithmKind::OnePlusEpsMatching`]).
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`CoreError`].
    pub fn run_cold(&mut self) -> Result<RunReport, CoreError> {
        let (mut report, artifacts) = run_detailed(&self.graph, &self.label, &self.spec)?;
        self.recycle_warm();
        self.warm = match &artifacts {
            RunArtifacts::GreedyMis(out) => Some(Warm::Mis(member_mask(
                self.pool(),
                self.graph.num_vertices(),
                &out.mis,
            ))),
            RunArtifacts::OnePlusEps(out) => Some(Warm::Matching(
                out.matching
                    .edges()
                    .iter()
                    .map(|e| (e.u(), e.v()))
                    .collect(),
            )),
            _ => None,
        };
        self.pending_ins.clear();
        self.pending_del.clear();
        report
            .metrics
            .push(("incremental", MetricValue::Flag(false)));
        report
            .metrics
            .push(("generation", MetricValue::Int(self.generation as i64)));
        Ok(report)
    }

    /// Re-runs from warm state. See
    /// [`run_incremental_with`](Self::run_incremental_with).
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`CoreError`].
    pub fn run_incremental(&mut self) -> Result<RunReport, CoreError> {
        self.run_incremental_with(false)
    }

    /// Re-runs the spec from warm witness state: MIS frontier repair or
    /// matching augmentation (see the module docs), falling back to a
    /// cold run when no warm state exists or the kind does not support
    /// incremental re-runs. The report carries the same witness
    /// validators and budget checks as a cold run, plus the
    /// `incremental` / `generation` metrics.
    ///
    /// With `verify_cold`, a fresh cold run of the same spec on the same
    /// graph is executed afterwards and the incremental report must
    /// match its witness validity — a test-and-bench knob, not a serving
    /// mode.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`CoreError`];
    /// [`CoreError::InvalidParameter`] when `verify_cold` finds a
    /// divergence.
    pub fn run_incremental_with(&mut self, verify_cold: bool) -> Result<RunReport, CoreError> {
        let telemetry = self.spec.executor.telemetry().clone();
        let report = match (&self.warm, self.spec.algorithm) {
            (Some(Warm::Mis(_)), AlgorithmKind::GreedyMis) => {
                let _span = telemetry.span_tagged("session.run_incremental", "mis-repair");
                self.rerun_mis()?
            }
            (Some(Warm::Matching(_)), AlgorithmKind::OnePlusEpsMatching) => {
                let _span = telemetry.span_tagged("session.run_incremental", "matching-augment");
                self.rerun_matching()?
            }
            _ => {
                let _span = telemetry.span_tagged("session.run_incremental", "cold-fallback");
                self.run_cold()?
            }
        };
        if verify_cold {
            let (cold, _) = run_detailed(&self.graph, &self.label, &self.spec)?;
            if !report.witnesses_valid() || !cold.witnesses_valid() {
                return Err(CoreError::InvalidParameter {
                    name: "verify_cold",
                    message: format!(
                        "witness validity diverged at generation {}: incremental {} vs cold {}",
                        self.generation,
                        report.witnesses_valid(),
                        cold.witnesses_valid()
                    ),
                });
            }
        }
        Ok(report)
    }

    /// The session arena, installed by [`Session::new`].
    fn pool(&self) -> &ScratchPool {
        self.spec
            .executor
            .scratch()
            .expect("Session::new installs a scratch arena")
    }

    /// Returns a warm MIS mask's words to the arena.
    fn recycle_warm(&mut self) {
        if let Some(Warm::Mis(mask)) = self.warm.take() {
            mask.recycle(self.pool());
        }
    }

    /// MIS repair: drop members adjacent to inserted edges, then greedy
    /// re-insertion over the affected frontier in ascending id order.
    fn rerun_mis(&mut self) -> Result<RunReport, CoreError> {
        let start = std::time::Instant::now();
        let g = &self.graph;
        let mut mask = match self.warm.take() {
            Some(Warm::Mis(m)) => m,
            _ => unreachable!("caller matched Warm::Mis"),
        };

        // Drop phase: an inserted edge inside the set evicts the larger
        // endpoint (deterministic; processed in canonical edge order).
        self.pending_ins.sort_unstable();
        let mut dropped = Vec::new();
        for &(u, v) in &self.pending_ins {
            if mask.get(u as usize) && mask.get(v as usize) {
                let loser = u.max(v);
                mask.clear(loser as usize);
                dropped.push(loser);
            }
        }

        // Frontier: endpoints of churned edges + neighbors of dropped
        // members. Nothing else can have become addable (module docs).
        let mut frontier: Vec<VertexId> = Vec::new();
        for &(u, v) in self.pending_ins.iter().chain(self.pending_del.iter()) {
            frontier.push(u);
            frontier.push(v);
        }
        for &d in &dropped {
            frontier.extend_from_slice(g.neighbors(d));
        }
        frontier.sort_unstable();
        frontier.dedup();

        let mut readded = 0usize;
        for &v in &frontier {
            if mask.get(v as usize) {
                continue;
            }
            if g.neighbors(v).iter().all(|&w| !mask.get(w as usize)) {
                mask.set(v as usize);
                readded += 1;
            }
        }

        let exec = &self.spec.executor;
        let witness = check_witness(exec, "mis", mask.count_ones(), || {
            validate::mis(g, &mask, exec)
        });
        // One drop round + one frontier re-insertion round, against the
        // paper's cold-run claim for this graph.
        let substrate = SubstrateReport::from_rounds("mpc", 2, log_log2(g.max_degree().max(4)));
        let metrics = vec![
            ("incremental", MetricValue::Flag(true)),
            ("generation", MetricValue::Int(self.generation as i64)),
            ("frontier", MetricValue::Int(frontier.len() as i64)),
            ("dropped", MetricValue::Int(dropped.len() as i64)),
            ("readded", MetricValue::Int(readded as i64)),
        ];
        // A repaired set that fails its check is not trusted as the seed
        // of the next repair: that run re-warms cold instead.
        let valid = witness.valid;
        let report = self.finish(vec![witness], substrate, metrics, start);
        if valid {
            self.warm = Some(Warm::Mis(mask));
        } else {
            mask.recycle(self.pool());
        }
        self.pending_ins.clear();
        self.pending_del.clear();
        Ok(report)
    }

    /// Matching repair: keep the surviving pairs, then run the cold
    /// path's augmentation passes until one flips nothing.
    fn rerun_matching(&mut self) -> Result<RunReport, CoreError> {
        let start = std::time::Instant::now();
        let pairs = match &self.warm {
            Some(Warm::Matching(p)) => p.clone(),
            _ => unreachable!("caller matched Warm::Matching"),
        };
        let g = &self.graph;
        let surviving = pairs.len();
        let Some(mut matching) = Matching::new(g, pairs) else {
            // A stale pair (should be pruned at update time): re-warm
            // from a cold run instead of guessing.
            return self.run_cold();
        };
        let k = (1.0 / self.spec.eps.get()).ceil() as usize;
        let path_limit = 2 * k - 1;
        let max_passes = 8 * k;
        let mut passes = 0usize;
        let mut augmentations = 0usize;
        while passes < max_passes {
            let flipped = augmentation_pass(g, &mut matching, path_limit);
            passes += 1;
            augmentations += flipped;
            if flipped == 0 {
                break;
            }
        }
        let exec = &self.spec.executor;
        let witness = check_witness(exec, "matching", matching.len(), || {
            validate::maximal_matching(g, &matching, exec)
        });
        let substrate = SubstrateReport::from_rounds(
            "mpc",
            passes,
            log_log2(g.num_vertices()) / self.spec.eps.get(),
        );
        let metrics = vec![
            ("incremental", MetricValue::Flag(true)),
            ("generation", MetricValue::Int(self.generation as i64)),
            ("surviving", MetricValue::Int(surviving as i64)),
            ("repair_passes", MetricValue::Int(passes as i64)),
            ("augmentations", MetricValue::Int(augmentations as i64)),
        ];
        let report = self.finish(vec![witness], substrate, metrics, start);
        self.warm = Some(Warm::Matching(
            matching.edges().iter().map(|e| (e.u(), e.v())).collect(),
        ));
        self.pending_ins.clear();
        self.pending_del.clear();
        Ok(report)
    }

    /// Assembles an incremental report with the same budget checks as
    /// [`run_detailed`].
    fn finish(
        &self,
        witnesses: Vec<WitnessStat>,
        substrate: SubstrateReport,
        metrics: Vec<(&'static str, MetricValue)>,
        start: std::time::Instant,
    ) -> RunReport {
        let mut budget_violations = Vec::new();
        if let Some(cap) = self.spec.budget.max_n {
            if self.graph.num_vertices() > cap {
                budget_violations.push(format!(
                    "workload has {} vertices, exceeding the admission cap max_n = {cap}",
                    self.graph.num_vertices()
                ));
            }
        }
        if let Some(max) = self.spec.budget.max_rounds {
            if substrate.rounds > max {
                budget_violations.push(format!("rounds {} exceed budget {max}", substrate.rounds));
            }
        }
        if let Some(max) = self.spec.budget.max_load_words {
            if !substrate.metered {
                budget_violations.push(format!(
                    "load budget {max} set, but incremental {} does not meter per-machine load",
                    self.spec.algorithm.name()
                ));
            } else if substrate.max_load_words > max {
                budget_violations.push(format!(
                    "max load {} words exceeds budget {max}",
                    substrate.max_load_words
                ));
            }
        }
        RunReport {
            algorithm: self.spec.algorithm,
            scenario: self.label.clone(),
            n: self.graph.num_vertices(),
            num_edges: self.graph.num_edges(),
            max_degree: self.graph.max_degree(),
            eps: self.spec.eps.get(),
            seed: self.spec.seed,
            witnesses,
            substrate,
            trace: ExecutionTrace::new(),
            metrics,
            budget_violations,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::rng::hash2;

    fn spec(kind: AlgorithmKind, scenario: &str, n: usize) -> RunSpec {
        let mut s = RunSpec::new(kind, scenario);
        s.n = Some(n);
        s
    }

    /// A seeded churn delta over the session's current graph: ~half
    /// deletes of existing edges, ~half inserts of fresh ones.
    fn churn(session: &Session, ops: usize, salt: u64) -> GraphDelta {
        let g = session.graph();
        let n = g.num_vertices() as u64;
        let mut delta = GraphDelta::new();
        let edges: Vec<_> = g.edges().iter().collect();
        for i in 0..ops {
            let h = hash2(salt, i as u64);
            if i % 2 == 0 && !edges.is_empty() {
                let e = edges[(h % edges.len() as u64) as usize];
                delta.delete_edge(e.u(), e.v()).unwrap();
            } else {
                let a = (h % n) as VertexId;
                let b = ((h >> 32) % n) as VertexId;
                if a != b {
                    delta.insert_edge(a, b).unwrap();
                }
            }
        }
        delta
    }

    #[test]
    fn mis_incremental_matches_cold_validity_across_generations() {
        let mut session = Session::new(&spec(AlgorithmKind::GreedyMis, "gnp-sparse", 300)).unwrap();
        let cold = session.run_cold().unwrap();
        assert!(cold.ok());
        assert!(session.is_warm());
        for round in 0..5u64 {
            session.apply_update(&churn(&session, 6, round)).unwrap();
            let report = session.run_incremental_with(true).unwrap();
            assert!(
                report.ok(),
                "generation {round}: {:?}",
                report.budget_violations
            );
            assert_eq!(report.metric("incremental"), Some(&MetricValue::Flag(true)));
            assert_eq!(
                report.metric("generation"),
                Some(&MetricValue::Int(round as i64 + 1))
            );
        }
    }

    #[test]
    fn matching_incremental_matches_cold_validity_across_generations() {
        let mut session =
            Session::new(&spec(AlgorithmKind::OnePlusEpsMatching, "gnp-sparse", 200)).unwrap();
        assert!(session.run_cold().unwrap().ok());
        for round in 0..4u64 {
            session
                .apply_update(&churn(&session, 4, 100 + round))
                .unwrap();
            let report = session.run_incremental_with(true).unwrap();
            assert!(report.ok(), "generation {round}");
            assert_eq!(report.metric("incremental"), Some(&MetricValue::Flag(true)));
        }
    }

    #[test]
    fn first_incremental_run_is_cold() {
        let mut session = Session::new(&spec(AlgorithmKind::GreedyMis, "gnp-sparse", 128)).unwrap();
        let report = session.run_incremental().unwrap();
        assert!(report.ok());
        assert_eq!(
            report.metric("incremental"),
            Some(&MetricValue::Flag(false))
        );
        assert!(session.is_warm());
    }

    #[test]
    fn unsupported_kinds_fall_back_to_cold() {
        let mut session = Session::new(&spec(AlgorithmKind::LubyMis, "gnp-sparse", 128)).unwrap();
        assert!(session.run_cold().unwrap().ok());
        session.apply_update(&churn(&session, 4, 9)).unwrap();
        let report = session.run_incremental().unwrap();
        assert!(report.ok());
        assert_eq!(
            report.metric("incremental"),
            Some(&MetricValue::Flag(false))
        );
    }

    #[test]
    fn update_tracks_generation_and_edge_count() {
        let mut session = Session::new(&spec(AlgorithmKind::GreedyMis, "gnp-sparse", 64)).unwrap();
        assert_eq!(session.generation(), 0);
        let before = session.graph().num_edges();
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 1).unwrap();
        delta.insert_edge(0, 2).unwrap();
        let out = session.apply_update(&delta).unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(out.inserted, 2);
        assert!(out.num_edges >= before, "inserts never shrink the graph");
        assert_eq!(session.generation(), 1);
    }

    #[test]
    fn out_of_range_update_is_refused() {
        let mut session = Session::new(&spec(AlgorithmKind::GreedyMis, "gnp-sparse", 64)).unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 64).unwrap();
        assert!(session.apply_update(&delta).is_err());
        assert_eq!(session.generation(), 0, "failed updates do not bump");
    }
}

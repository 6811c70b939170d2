//! The unified run driver: one entry point for every `(algorithm,
//! scenario)` pair in the workspace.
//!
//! The paper states one family of claims — round counts, load budgets,
//! approximation ratios — across five algorithm families and two
//! substrates. This module checks them through one code path instead of
//! per-binary plumbing: a [`RunSpec`] names an [`AlgorithmKind`] and a
//! workload from the [`mmvc_graph::scenarios`] registry, [`run`] executes
//! it, validates the witnesses (maximality, coverage, feasibility), and
//! returns a [`RunReport`] carrying the measured substrate quantities
//! next to the paper's claimed round bound, the full
//! [`ExecutionTrace`], algorithm-specific metrics, and wall time.
//!
//! The CLI (`mmvc run` / `mmvc list`), the daemon (`mmvc serve`) and the
//! 13 experiment binaries are all thin declarations over this driver.
//! [`report_json`] renders a report as the document `mmvc run --json`
//! prints; with `wall_ms` zeroed it is the canonical body that
//! `mmvc run --canonical` prints and `mmvc serve` caches.
//!
//! Determinism: a [`RunReport`] (minus [`RunReport::wall_ms`]) is a pure
//! function of the spec — the same spec yields byte-identical serialized
//! reports, and by the round engine's contract the executor never changes
//! a reported number, only wall time.
//!
//! ```
//! use mmvc_core::run::{run, AlgorithmKind, RunSpec};
//!
//! let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
//! spec.n = Some(256);
//! let report = run(&spec)?;
//! assert!(report.ok());
//! assert_eq!(report.witnesses[0].kind, "mis");
//! # Ok::<(), mmvc_core::CoreError>(())
//! ```

use crate::baselines::luby_mis;
use crate::epsilon::Epsilon;
use crate::error::CoreError;
use crate::filtering::{filtering_maximal_matching, FilteringConfig, FilteringOutcome};
use crate::json::Json;
use crate::matching::{
    integral_matching, mpc_simulation, one_plus_eps_matching, run_central, AugmentConfig,
    AugmentOutcome, CentralConfig, CentralOutcome, IntegralMatchingConfig, IntegralMatchingOutcome,
    MpcMatchingConfig, MpcMatchingOutcome, ThresholdMode, WeightedMatchingConfig,
    WeightedMatchingOutcome,
};
use crate::mis::{
    clique_mis, ghaffari_local_mis, greedy_mpc_mis, CliqueMisConfig, CliqueMisOutcome,
    GreedyMisConfig, GreedyMisOutcome, LocalMisConfig, LocalMisOutcome,
};
use crate::vertex_cover::{approx_min_vertex_cover, VertexCoverConfig, VertexCoverOutcome};
use mmvc_graph::mis::IndependentSet;
use mmvc_graph::scenarios;
use mmvc_graph::validate::{self, Violation};
use mmvc_graph::weighted::WeightedGraph;
use mmvc_graph::{Graph, VertexId};
use mmvc_substrate::{Bitset, ExecutionTrace, ExecutorConfig, ScratchPool, Substrate};

/// Seed salt separating the weight stream of [`weighted_instance`] from
/// the algorithm's own randomness.
const WEIGHT_SEED_SALT: u64 = 0x5747_4D4D; // "WGMM"

/// `log₂ log₂ n`, the reference curve for the paper's round bounds
/// (clamped at `n = 4` so it stays positive).
pub fn log_log2(n: usize) -> f64 {
    (n.max(4) as f64).log2().log2()
}

/// Every algorithm family the driver can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// Theorem 1.1 — MIS in `O(log log Δ)` MPC rounds.
    GreedyMis,
    /// Theorem 1.1 — MIS in `O(log log Δ)` CONGESTED-CLIQUE rounds.
    CliqueMis,
    /// Theorem 2.1 substitute — Ghaffari's desire-level local MIS.
    LocalMis,
    /// Baseline §1.2 — Luby's `O(log n)` MIS.
    LubyMis,
    /// Lemma 4.1 — the centralized `Central-Rand` process.
    Central,
    /// Lemma 4.2 — `MPC-Simulation` (fractional matching + cover).
    MpcMatching,
    /// §4.4.5 — LMSV filtering maximal matching.
    Filtering,
    /// Theorem 1.2 — integral `(2+ε)` matching and cover.
    IntegralMatching,
    /// Corollary 1.3 — `(1+ε)` matching by augmentation.
    OnePlusEpsMatching,
    /// Corollary 1.4 — `(2+ε)` weighted matching.
    WeightedMatching,
    /// Theorem 1.2 — vertex cover with self-certifying ratio.
    VertexCover,
}

impl AlgorithmKind {
    /// All kinds, in stable display order.
    pub const ALL: [AlgorithmKind; 11] = [
        AlgorithmKind::GreedyMis,
        AlgorithmKind::CliqueMis,
        AlgorithmKind::LocalMis,
        AlgorithmKind::LubyMis,
        AlgorithmKind::Central,
        AlgorithmKind::MpcMatching,
        AlgorithmKind::Filtering,
        AlgorithmKind::IntegralMatching,
        AlgorithmKind::OnePlusEpsMatching,
        AlgorithmKind::WeightedMatching,
        AlgorithmKind::VertexCover,
    ];

    /// Stable kebab-case name (the CLI and JSON identifier).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::GreedyMis => "greedy-mis",
            AlgorithmKind::CliqueMis => "clique-mis",
            AlgorithmKind::LocalMis => "local-mis",
            AlgorithmKind::LubyMis => "luby-mis",
            AlgorithmKind::Central => "central",
            AlgorithmKind::MpcMatching => "mpc-matching",
            AlgorithmKind::Filtering => "filtering",
            AlgorithmKind::IntegralMatching => "integral-matching",
            AlgorithmKind::OnePlusEpsMatching => "one-plus-eps",
            AlgorithmKind::WeightedMatching => "weighted-matching",
            AlgorithmKind::VertexCover => "vertex-cover",
        }
    }

    /// One-line description shown by `mmvc list`.
    pub fn description(&self) -> &'static str {
        match self {
            AlgorithmKind::GreedyMis => "Theorem 1.1: MIS in O(log log Δ) MPC rounds",
            AlgorithmKind::CliqueMis => "Theorem 1.1: MIS in O(log log Δ) CONGESTED-CLIQUE rounds",
            AlgorithmKind::LocalMis => "Theorem 2.1 substitute: Ghaffari's local MIS process",
            AlgorithmKind::LubyMis => "baseline: Luby's O(log n) MIS [Lub86]",
            AlgorithmKind::Central => "Lemma 4.1: centralized fractional matching/cover",
            AlgorithmKind::MpcMatching => "Lemma 4.2: MPC-Simulation fractional matching/cover",
            AlgorithmKind::Filtering => "§4.4.5: LMSV filtering maximal matching",
            AlgorithmKind::IntegralMatching => "Theorem 1.2: integral (2+ε) matching and cover",
            AlgorithmKind::OnePlusEpsMatching => "Corollary 1.3: (1+ε) matching by augmentation",
            AlgorithmKind::WeightedMatching => "Corollary 1.4: (2+ε) weighted matching",
            AlgorithmKind::VertexCover => "Theorem 1.2: vertex cover with certified ratio",
        }
    }

    /// Parses a CLI/JSON name back into a kind.
    pub fn parse(name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource limits on a run. `max_rounds` and `max_load_words` are
/// post-hoc checks against the measured substrate quantities (violations
/// are listed in [`RunReport::budget_violations`]); `max_n` is an
/// **admission cap** checked *before* the workload is built — a refused
/// run returns an error instead of a report, which is how callers that
/// serve untrusted specs (the daemon's `POST /run`) keep the
/// million-vertex scale tier from pinning a worker unless it was admitted
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunBudget {
    /// Maximum substrate rounds.
    pub max_rounds: Option<usize>,
    /// Maximum peak per-machine / per-player load, in words.
    pub max_load_words: Option<usize>,
    /// Admission cap on the workload's vertex count (the scenario's
    /// effective `n`, or the loaded graph's `num_vertices` for file
    /// workloads). `None` admits everything, including the scale tier.
    pub max_n: Option<usize>,
}

/// Algorithm-specific configuration overrides — the ablation knobs of the
/// experiment binaries. `Default::default()` is the standard run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOverrides {
    /// Run the coupled `Central-Rand` reference and report deviation
    /// diagnostics ([`MpcMatchingConfig::diagnostics`]).
    pub diagnostics: bool,
    /// Threshold drawing mode (E11 ablation).
    pub threshold_mode: Option<ThresholdMode>,
    /// Machine-count multiplier `m = c·√d` (E12 ablation).
    pub machine_factor: Option<f64>,
    /// Per-machine memory factor (words = factor · n).
    pub space_factor: Option<f64>,
    /// Sublinear-memory regime: per-machine memory shrinks by this factor
    /// (E13; see [`MpcMatchingConfig::sublinear`]).
    pub memory_reduction: Option<f64>,
    /// Weight range for [`AlgorithmKind::WeightedMatching`] instances
    /// (uniform in `[lo, hi]`; see [`weighted_instance`]).
    pub weight_range: (f64, f64),
}

impl Default for RunOverrides {
    fn default() -> Self {
        RunOverrides {
            diagnostics: false,
            threshold_mode: None,
            machine_factor: None,
            space_factor: None,
            memory_reduction: None,
            weight_range: (1.0, 100.0),
        }
    }
}

/// A fully-specified run: which algorithm, on which workload, with which
/// parameters and limits.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The algorithm family to execute.
    pub algorithm: AlgorithmKind,
    /// Scenario registry name ([`mmvc_graph::scenarios`]); empty when
    /// [`graph_file`](Self::graph_file) names the workload instead.
    pub scenario: String,
    /// Path to an edge-list workload file ([`mmvc_graph::io`]). When set,
    /// the driver loads the file instead of consulting the scenario
    /// registry — user-supplied workloads run through the same entry
    /// point as the seeded families.
    pub graph_file: Option<String>,
    /// Vertex-count override (`None` = the scenario's default size).
    pub n: Option<usize>,
    /// Approximation parameter `ε` (ignored by the MIS kinds).
    pub eps: Epsilon,
    /// Seed for both the workload generator and the algorithm.
    pub seed: u64,
    /// Round-engine executor. Never changes reported numbers, only wall
    /// time (the engine's determinism contract).
    pub executor: ExecutorConfig,
    /// Resource limits checked after the run.
    pub budget: RunBudget,
    /// Ablation knobs; default for the standard run.
    pub overrides: RunOverrides,
}

impl RunSpec {
    /// A standard spec: `ε = 0.1`, seed 42, default executor, no budget.
    pub fn new(algorithm: AlgorithmKind, scenario: &str) -> Self {
        RunSpec {
            algorithm,
            scenario: scenario.to_string(),
            graph_file: None,
            n: None,
            eps: Epsilon::new(0.1).expect("0.1 is a valid epsilon"),
            seed: 42,
            executor: ExecutorConfig::default(),
            budget: RunBudget::default(),
            overrides: RunOverrides::default(),
        }
    }

    /// A standard spec whose workload is an edge-list file instead of a
    /// registry scenario (same defaults as [`new`](Self::new)).
    pub fn from_file(algorithm: AlgorithmKind, path: &str) -> Self {
        let mut spec = RunSpec::new(algorithm, "");
        spec.graph_file = Some(path.to_string());
        spec
    }

    /// Builds a spec from untyped `(key, value)` fields — the validation
    /// path behind every external spec source (`mmvc-serve`'s `POST
    /// /run` bodies in particular). Strict: unknown keys, wrong types,
    /// and out-of-domain values are errors, never silently dropped, and
    /// the workload must be named by exactly one of `scenario` /
    /// `graph_file`.
    ///
    /// Accepted keys: `algorithm` (required), `scenario`, `graph_file`,
    /// `n`, `eps`, `seed`, `max_rounds`, `max_load_words`, `max_n`. A
    /// [`SpecValue::Null`] value means "use the default", exactly like
    /// omitting the key.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] describing the offending field.
    pub fn from_fields(fields: &[(String, SpecValue)]) -> Result<RunSpec, CoreError> {
        let algorithm = fields
            .iter()
            .find(|(k, _)| k == "algorithm")
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, SpecValue::Null))
            .ok_or_else(|| CoreError::InvalidParameter {
                name: "algorithm",
                message: "required field is missing".to_string(),
            })?;
        let algorithm = match algorithm {
            SpecValue::Str(name) => {
                AlgorithmKind::parse(name).ok_or_else(|| CoreError::InvalidParameter {
                    name: "algorithm",
                    message: format!(
                        "unknown algorithm `{name}` (one of: {})",
                        AlgorithmKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                })?
            }
            other => {
                return Err(CoreError::InvalidParameter {
                    name: "algorithm",
                    message: format!("expected a string, got {}", other.type_name()),
                })
            }
        };
        let mut spec = RunSpec::new(algorithm, "");
        for (key, value) in fields {
            if key == "algorithm" {
                continue;
            }
            spec.apply_field(key, value)?;
        }
        if spec.scenario.is_empty() && spec.graph_file.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "scenario",
                message: "give a workload: either `scenario` or `graph_file`".to_string(),
            });
        }
        Ok(spec)
    }

    /// Applies one untyped field to the spec (see
    /// [`from_fields`](Self::from_fields) for the accepted keys and
    /// strictness rules). [`SpecValue::Null`] is a no-op.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on unknown keys, type mismatches,
    /// or out-of-domain values.
    pub fn apply_field(&mut self, key: &str, value: &SpecValue) -> Result<(), CoreError> {
        if matches!(value, SpecValue::Null) {
            return Ok(());
        }
        match key {
            "scenario" => {
                self.scenario = value.expect_str("scenario")?.to_string();
                if self.graph_file.is_some() {
                    return Err(both_workloads());
                }
            }
            "graph_file" => {
                self.graph_file = Some(value.expect_str("graph_file")?.to_string());
                if !self.scenario.is_empty() {
                    return Err(both_workloads());
                }
            }
            "n" => self.n = Some(value.expect_usize("n")?),
            "eps" => {
                let raw = value.expect_f64("eps")?;
                self.eps = Epsilon::new(raw)?;
            }
            "seed" => {
                let raw = value.expect_i64("seed")?;
                self.seed = u64::try_from(raw).map_err(|_| CoreError::InvalidParameter {
                    name: "seed",
                    message: format!("must be a non-negative integer, got {raw}"),
                })?;
            }
            "max_rounds" => self.budget.max_rounds = Some(value.expect_usize("max_rounds")?),
            "max_load_words" => {
                self.budget.max_load_words = Some(value.expect_usize("max_load_words")?)
            }
            "max_n" => self.budget.max_n = Some(value.expect_usize("max_n")?),
            other => {
                return Err(CoreError::InvalidParameter {
                    name: "spec",
                    message: format!(
                        "unknown field `{other}` (accepted: algorithm, scenario, graph_file, \
                         n, eps, seed, max_rounds, max_load_words, max_n)"
                    ),
                })
            }
        }
        Ok(())
    }
}

fn both_workloads() -> CoreError {
    CoreError::InvalidParameter {
        name: "graph_file",
        message: "give either `scenario` or `graph_file`, not both".to_string(),
    }
}

/// An untyped spec field value — the bridge between external encodings
/// (JSON request bodies, CLI flags) and [`RunSpec::from_fields`], kept
/// here so spec validation lives with the spec rather than in every
/// front end.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// Explicit "use the default".
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A real number.
    Float(f64),
    /// A string.
    Str(String),
}

impl SpecValue {
    /// The type label used in mismatch error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            SpecValue::Null => "null",
            SpecValue::Bool(_) => "a boolean",
            SpecValue::Int(_) => "an integer",
            SpecValue::Float(_) => "a number",
            SpecValue::Str(_) => "a string",
        }
    }

    fn expect_str(&self, name: &'static str) -> Result<&str, CoreError> {
        match self {
            SpecValue::Str(s) => Ok(s),
            other => Err(type_mismatch(name, "a string", other)),
        }
    }

    fn expect_i64(&self, name: &'static str) -> Result<i64, CoreError> {
        match self {
            SpecValue::Int(v) => Ok(*v),
            other => Err(type_mismatch(name, "an integer", other)),
        }
    }

    fn expect_usize(&self, name: &'static str) -> Result<usize, CoreError> {
        let raw = self.expect_i64(name)?;
        usize::try_from(raw).map_err(|_| CoreError::InvalidParameter {
            name,
            message: format!("must be a non-negative integer, got {raw}"),
        })
    }

    fn expect_f64(&self, name: &'static str) -> Result<f64, CoreError> {
        match self {
            SpecValue::Int(v) => Ok(*v as f64),
            SpecValue::Float(v) => Ok(*v),
            other => Err(type_mismatch(name, "a number", other)),
        }
    }
}

fn type_mismatch(name: &'static str, want: &str, got: &SpecValue) -> CoreError {
    CoreError::InvalidParameter {
        name,
        message: format!("expected {want}, got {}", got.type_name()),
    }
}

/// One algorithm-specific measurement in a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// An integral count.
    Int(i64),
    /// A real-valued measurement.
    Float(f64),
    /// A boolean flag.
    Flag(bool),
    /// A free-form label.
    Text(String),
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Float(v) => write!(f, "{v}"),
            MetricValue::Flag(v) => write!(f, "{v}"),
            MetricValue::Text(v) => f.write_str(v),
        }
    }
}

/// A validated solution artifact: what the algorithm produced and whether
/// it checked out against the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessStat {
    /// Witness kind: `"mis"`, `"matching"`, `"cover"`.
    pub kind: &'static str,
    /// Cardinality of the witness set.
    pub size: usize,
    /// Whether validation passed (maximality for MIS, edges-in-graph and
    /// maximality where claimed for matchings, coverage for covers).
    pub valid: bool,
}

/// The substrate-derived portion of a report: measured quantities next to
/// the paper's claimed round bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateReport {
    /// Which substrate was measured (`"mpc"`, `"congested-clique"`,
    /// `"local"`, …).
    pub substrate: &'static str,
    /// Measured rounds.
    pub rounds: usize,
    /// Measured peak per-machine / per-player load in words.
    pub max_load_words: usize,
    /// Measured total communication in words.
    pub total_words: usize,
    /// The claimed round bound being tested (e.g. `log₂ log₂ Δ`).
    pub claimed_rounds: f64,
    /// Whether per-machine loads were actually metered. `false` for the
    /// kinds that only count rounds ([`SubstrateReport::from_rounds`]) —
    /// their zero `max_load_words` is "not measured", not "measured
    /// zero", and a load budget against them is an error, not a pass.
    pub metered: bool,
}

impl SubstrateReport {
    /// Measures a live or stored substrate against a claimed round bound.
    pub fn measure(substrate: &dyn Substrate, claimed_rounds: f64) -> Self {
        SubstrateReport {
            substrate: substrate.substrate_name(),
            rounds: substrate.rounds(),
            max_load_words: substrate.max_load_words(),
            total_words: substrate.total_words(),
            claimed_rounds,
            metered: true,
        }
    }

    /// A report for an algorithm that counts rounds without metering
    /// loads (`Central` iterations, pipelined weighted-matching rounds).
    pub fn from_rounds(substrate: &'static str, rounds: usize, claimed_rounds: f64) -> Self {
        SubstrateReport {
            substrate,
            rounds,
            max_load_words: 0,
            total_words: 0,
            claimed_rounds,
            metered: false,
        }
    }

    /// `measured / claimed` — the figure of merit for the paper's round
    /// bounds (`inf` when the claim is zero but rounds were used; 1 when
    /// both are zero).
    pub fn round_ratio(&self) -> f64 {
        if self.claimed_rounds > 0.0 {
            self.rounds as f64 / self.claimed_rounds
        } else if self.rounds == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    }
}

/// Everything one run produced: validated witnesses, the measured
/// substrate quantities against the claim, the full per-round trace,
/// algorithm-specific metrics, budget checks, and wall time.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The algorithm that ran.
    pub algorithm: AlgorithmKind,
    /// Workload label (registry name, or the caller's label for
    /// [`run_on`]).
    pub scenario: String,
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub num_edges: usize,
    /// Maximum degree of the input graph.
    pub max_degree: usize,
    /// Approximation parameter used.
    pub eps: f64,
    /// Seed used.
    pub seed: u64,
    /// Validated witness statistics.
    pub witnesses: Vec<WitnessStat>,
    /// Claimed-vs-measured round/load quantities.
    pub substrate: SubstrateReport,
    /// The full per-round execution record (empty for unmetered
    /// algorithms).
    pub trace: ExecutionTrace,
    /// Algorithm-specific measurements, in stable emission order.
    pub metrics: Vec<(&'static str, MetricValue)>,
    /// Budget violations (empty when every limit held).
    pub budget_violations: Vec<String>,
    /// Wall-clock time of the algorithm call, in milliseconds. The only
    /// nondeterministic field; zero it before byte-comparing reports.
    pub wall_ms: f64,
}

impl RunReport {
    /// Whether every witness validated.
    pub fn witnesses_valid(&self) -> bool {
        self.witnesses.iter().all(|w| w.valid)
    }

    /// Whether the run succeeded: witnesses valid and budget respected.
    pub fn ok(&self) -> bool {
        self.witnesses_valid() && self.budget_violations.is_empty()
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// A metric as `f64` (integers and flags coerce; text is `None`).
    pub fn metric_f64(&self, name: &str) -> Option<f64> {
        match self.metric(name)? {
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Float(v) => Some(*v),
            MetricValue::Flag(v) => Some(if *v { 1.0 } else { 0.0 }),
            MetricValue::Text(_) => None,
        }
    }
}

/// Serializes a [`RunReport`] (deterministic except `wall_ms`; zero it
/// first when byte-comparing).
pub fn report_json(r: &RunReport) -> Json {
    Json::obj(vec![
        ("algorithm", Json::Str(r.algorithm.name().to_string())),
        ("scenario", Json::Str(r.scenario.clone())),
        (
            "graph",
            Json::obj(vec![
                ("n", Json::Int(r.n as i64)),
                ("edges", Json::Int(r.num_edges as i64)),
                ("max_degree", Json::Int(r.max_degree as i64)),
            ]),
        ),
        ("eps", Json::Float(r.eps)),
        ("seed", Json::Int(r.seed as i64)),
        (
            "witnesses",
            Json::Arr(
                r.witnesses
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("kind", Json::Str(w.kind.to_string())),
                            ("size", Json::Int(w.size as i64)),
                            ("valid", Json::Bool(w.valid)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "substrate",
            Json::obj(vec![
                ("name", Json::Str(r.substrate.substrate.to_string())),
                ("rounds", Json::Int(r.substrate.rounds as i64)),
                ("claimed_rounds", Json::Float(r.substrate.claimed_rounds)),
                ("round_ratio", Json::Float(r.substrate.round_ratio())),
                (
                    "max_load_words",
                    Json::Int(r.substrate.max_load_words as i64),
                ),
                ("total_words", Json::Int(r.substrate.total_words as i64)),
                ("metered", Json::Bool(r.substrate.metered)),
            ]),
        ),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), metric_json(v)))
                    .collect(),
            ),
        ),
        (
            "trace",
            Json::Arr(
                r.trace
                    .per_round()
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Int(s.round as i64),
                            Json::Int(s.max_load_words as i64),
                            Json::Int(s.total_words as i64),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "budget_violations",
            Json::Arr(r.budget_violations.iter().cloned().map(Json::Str).collect()),
        ),
        ("wall_ms", Json::Float(r.wall_ms)),
    ])
}

fn metric_json(v: &MetricValue) -> Json {
    match v {
        MetricValue::Int(x) => Json::Int(*x),
        MetricValue::Float(x) => Json::Float(*x),
        MetricValue::Flag(x) => Json::Bool(*x),
        MetricValue::Text(x) => Json::Str(x.clone()),
    }
}

/// The raw algorithm outcome behind a report, for callers that need more
/// than the distilled [`RunReport`] (e.g. re-rounding a fractional
/// matching, or scoring against a reference on the same weighted
/// instance).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RunArtifacts {
    /// From [`AlgorithmKind::GreedyMis`].
    GreedyMis(GreedyMisOutcome),
    /// From [`AlgorithmKind::CliqueMis`].
    CliqueMis(CliqueMisOutcome),
    /// From [`AlgorithmKind::LocalMis`]: the process outcome plus the
    /// finished maximal set.
    LocalMis(LocalMisOutcome, IndependentSet),
    /// From [`AlgorithmKind::LubyMis`].
    LubyMis(crate::baselines::LubyOutcome),
    /// From [`AlgorithmKind::Central`].
    Central(CentralOutcome),
    /// From [`AlgorithmKind::MpcMatching`].
    MpcMatching(MpcMatchingOutcome),
    /// From [`AlgorithmKind::Filtering`].
    Filtering(FilteringOutcome),
    /// From [`AlgorithmKind::IntegralMatching`].
    IntegralMatching(IntegralMatchingOutcome),
    /// From [`AlgorithmKind::OnePlusEpsMatching`].
    OnePlusEps(AugmentOutcome),
    /// From [`AlgorithmKind::WeightedMatching`]: the outcome plus the
    /// weighted instance it ran on.
    WeightedMatching(WeightedMatchingOutcome, WeightedGraph),
    /// From [`AlgorithmKind::VertexCover`].
    VertexCover(VertexCoverOutcome),
}

/// The weighted instance [`run_on`] derives for
/// [`AlgorithmKind::WeightedMatching`]: uniform weights in
/// `spec.overrides.weight_range`, seeded from `spec.seed` (salted so the
/// weight stream is independent of the algorithm's randomness).
///
/// Exposed so experiment binaries can score references (greedy, brute
/// force) on the *same* instance the driver ran.
///
/// # Panics
///
/// Panics if the weight range is invalid (`lo > hi`, non-positive, or
/// non-finite) — a spec construction error, not a runtime condition.
pub fn weighted_instance(g: &Graph, spec: &RunSpec) -> WeightedGraph {
    let (lo, hi) = spec.overrides.weight_range;
    WeightedGraph::with_random_weights(g.clone(), lo, hi, spec.seed ^ WEIGHT_SEED_SALT)
        .expect("weight range must be valid")
}

/// Checks one witness exactly once with its [`validate`] check, under a
/// `validate` span tagged with the witness kind (arg `valid`). A
/// violation is reported as `valid: false`, never as a panic.
pub(crate) fn check_witness(
    exec: &ExecutorConfig,
    kind: &'static str,
    size: usize,
    check: impl FnOnce() -> Result<(), Violation>,
) -> WitnessStat {
    let mut span = exec.telemetry().span_tagged("validate", kind);
    let valid = check().is_ok();
    span.arg("valid", u64::from(valid));
    WitnessStat { kind, size, valid }
}

/// A membership mask of `set` over `0..n`, drawn from `pool`.
pub(crate) fn member_mask(pool: &ScratchPool, n: usize, set: &IndependentSet) -> Bitset {
    let mut mask = Bitset::new_in(pool, n);
    for &v in set.members() {
        mask.set(v as usize);
    }
    mask
}

/// [`validate::mis`] on an [`IndependentSet`], through a pooled mask of
/// its members.
fn mis_witness(g: &Graph, mis: &IndependentSet, exec: &ExecutorConfig) -> WitnessStat {
    check_witness(exec, "mis", mis.len(), || {
        let pool = exec
            .scratch()
            .expect("run_detailed installs a scratch arena");
        let mask = member_mask(pool, g.num_vertices(), mis);
        let result = validate::mis(g, &mask, exec);
        mask.recycle(pool);
        result
    })
}

/// Resolves `spec.scenario` through the registry and builds the workload.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for an unknown scenario name;
/// propagates generator errors for infeasible size overrides.
pub fn build_scenario(spec: &RunSpec) -> Result<Graph, CoreError> {
    let sc = scenarios::get(&spec.scenario).ok_or_else(|| CoreError::InvalidParameter {
        name: "scenario",
        message: format!(
            "unknown scenario `{}` (see `mmvc list` or mmvc_graph::scenarios::names())",
            spec.scenario
        ),
    })?;
    let n = spec.n.unwrap_or(sc.default_n);
    if let Some(cap) = spec.budget.max_n {
        if n > cap {
            return Err(CoreError::InvalidParameter {
                name: "n",
                message: format!(
                    "workload size {n} exceeds the admission cap max_n = {cap} \
                     (scale-tier scenarios must be admitted explicitly)"
                ),
            });
        }
    }
    // The spec's executor drives graph construction too: by the
    // generators' determinism contract it changes build wall time only,
    // never the graph.
    Ok(sc.build_with_exec(n, spec.seed, &spec.executor)?)
}

/// Resolves the spec's workload: the registry scenario, or — when
/// [`RunSpec::graph_file`] is set — the edge-list file, loaded through
/// [`mmvc_graph::io`]. Returns the graph and the label recorded as the
/// report's scenario name (`file:<path>` for file workloads).
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for an unknown scenario or when both
/// workload kinds are named; [`CoreError::GraphFile`] when the file
/// cannot be opened or parsed.
pub fn build_workload(spec: &RunSpec) -> Result<(Graph, String), CoreError> {
    match &spec.graph_file {
        Some(path) => {
            if !spec.scenario.is_empty() {
                return Err(both_workloads());
            }
            if spec.n.is_some() {
                return Err(CoreError::InvalidParameter {
                    name: "n",
                    message: "a size override does not apply to a graph file workload".to_string(),
                });
            }
            let graph_file_err = |source| CoreError::GraphFile {
                path: path.clone(),
                source,
            };
            let file = std::fs::File::open(path)
                .map_err(|e| graph_file_err(mmvc_graph::io::ReadError::Io(e)))?;
            // The admission cap applies before the CSR arrays are
            // allocated — a tiny file declaring a huge vertex count must
            // be refused by arithmetic, not by OOM.
            let g = mmvc_graph::io::read_edge_list_capped(
                std::io::BufReader::new(file),
                spec.budget.max_n,
            )
            .map_err(graph_file_err)?;
            Ok((g, format!("file:{path}")))
        }
        None => Ok((build_scenario(spec)?, spec.scenario.clone())),
    }
}

/// Runs a spec end to end: resolve the workload (registry scenario or
/// edge-list file), execute, validate.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for an unknown scenario,
/// [`CoreError::GraphFile`] for an unloadable graph file; otherwise
/// whatever the algorithm itself reports (typically substrate budget
/// violations under misconfigured space factors).
pub fn run(spec: &RunSpec) -> Result<RunReport, CoreError> {
    // One scratch arena per run, installed before the build so the
    // generator, the CSR builder, and every per-round algorithm scan
    // draw from (and recycle into) the same pool.
    let spec = spec_with_scratch(spec);
    let (g, label) = {
        let _span = spec.executor.telemetry().span("build");
        build_workload(&spec)?
    };
    run_on(&g, &label, &spec)
}

/// A copy of `spec` whose executor is guaranteed to carry a scratch
/// arena (idempotent when the caller already attached one).
fn spec_with_scratch(spec: &RunSpec) -> RunSpec {
    let mut s = spec.clone();
    s.executor = s.executor.clone().ensure_scratch();
    s
}

/// Like [`run`], but on a caller-supplied graph (for ad-hoc parameter
/// sweeps); `label` is recorded as the report's scenario name.
///
/// # Errors
///
/// Propagates the algorithm's [`CoreError`].
pub fn run_on(g: &Graph, label: &str, spec: &RunSpec) -> Result<RunReport, CoreError> {
    run_detailed(g, label, spec).map(|(report, _)| report)
}

/// Like [`run_on`], but also returns the raw algorithm outcome.
///
/// # Errors
///
/// Propagates the algorithm's [`CoreError`].
pub fn run_detailed(
    g: &Graph,
    label: &str,
    spec: &RunSpec,
) -> Result<(RunReport, RunArtifacts), CoreError> {
    // Backstop for direct callers: make sure the executor carries a
    // scratch arena (no-op when `run` already installed one).
    let spec = &spec_with_scratch(spec);
    // The admission cap guards every entry point, including file
    // workloads and caller-supplied graphs (the registry path already
    // refused before building — this is the backstop).
    if let Some(cap) = spec.budget.max_n {
        if g.num_vertices() > cap {
            return Err(CoreError::InvalidParameter {
                name: "n",
                message: format!(
                    "workload has {} vertices, exceeding the admission cap max_n = {cap}",
                    g.num_vertices()
                ),
            });
        }
    }
    let start = std::time::Instant::now();
    let (witnesses, substrate, trace, mut metrics, artifacts) = {
        let _span = spec
            .executor
            .telemetry()
            .span_tagged("algorithm", spec.algorithm.name())
            .with_arg("n", g.num_vertices() as u64)
            .with_arg("edges", g.num_edges() as u64);
        dispatch(g, spec)?
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // Scratch-arena counters are scheduling-dependent (which thread
    // reuses which shelf), so — like wall_ms — they may never enter the
    // canonical report surface. Diagnostics mode opts in explicitly;
    // it is not expressible through `POST /run`, so cached bodies stay
    // pure functions of the spec.
    if spec.overrides.diagnostics {
        if let Some(pool) = spec.executor.scratch() {
            let s = pool.stats();
            metrics.push((
                "scratch_allocations",
                MetricValue::Int(s.allocations as i64),
            ));
            metrics.push((
                "scratch_allocated_bytes",
                MetricValue::Int(s.allocated_bytes as i64),
            ));
            metrics.push(("scratch_reuses", MetricValue::Int(s.reuses as i64)));
            metrics.push((
                "scratch_reused_bytes",
                MetricValue::Int(s.reused_bytes as i64),
            ));
        }
    }

    let mut budget_violations = Vec::new();
    if let Some(max) = spec.budget.max_rounds {
        if substrate.rounds > max {
            budget_violations.push(format!("rounds {} exceed budget {max}", substrate.rounds));
        }
    }
    if let Some(max) = spec.budget.max_load_words {
        if !substrate.metered {
            budget_violations.push(format!(
                "load budget {max} set, but {} does not meter per-machine load",
                spec.algorithm.name()
            ));
        } else if substrate.max_load_words > max {
            budget_violations.push(format!(
                "max load {} words exceeds budget {max}",
                substrate.max_load_words
            ));
        }
    }

    let report = RunReport {
        algorithm: spec.algorithm,
        scenario: label.to_string(),
        n: g.num_vertices(),
        num_edges: g.num_edges(),
        max_degree: g.max_degree(),
        eps: spec.eps.get(),
        seed: spec.seed,
        witnesses,
        substrate,
        trace,
        metrics,
        budget_violations,
        wall_ms,
    };
    Ok((report, artifacts))
}

type DispatchOut = (
    Vec<WitnessStat>,
    SubstrateReport,
    ExecutionTrace,
    Vec<(&'static str, MetricValue)>,
    RunArtifacts,
);

/// Builds the `MPC-Simulation` config a spec describes (shared by the
/// matching, integral, and cover kinds).
fn sim_config(spec: &RunSpec) -> MpcMatchingConfig {
    let o = &spec.overrides;
    let mut cfg = match o.memory_reduction {
        Some(r) => MpcMatchingConfig::sublinear(spec.eps, spec.seed, r),
        None => MpcMatchingConfig::new(spec.eps, spec.seed),
    };
    cfg.executor = spec.executor.clone();
    cfg.diagnostics = o.diagnostics;
    if let Some(mode) = o.threshold_mode {
        cfg.threshold_mode = mode;
    }
    if let Some(c) = o.machine_factor {
        cfg.machine_factor = c;
    }
    if let Some(s) = o.space_factor {
        cfg.space_factor = s;
    }
    cfg
}

/// Appends the diagnostics metrics shared by the `MPC-Simulation` kinds.
fn push_sim_metrics(
    metrics: &mut Vec<(&'static str, MetricValue)>,
    out: &MpcMatchingOutcome,
    g: &Graph,
) {
    metrics.push(("phases", MetricValue::Int(out.phases as i64)));
    metrics.push(("iterations", MetricValue::Int(out.iterations as i64)));
    metrics.push((
        "tail_iterations",
        MetricValue::Int(out.tail_iterations as i64),
    ));
    let removed = out.removed.iter().filter(|&&r| r).count();
    metrics.push(("removed", MetricValue::Int(removed as i64)));
    metrics.push(("frac_weight", MetricValue::Float(out.fractional.weight())));
    metrics.push((
        "frac_feasible",
        MetricValue::Flag(out.fractional.is_feasible(g)),
    ));
    metrics.push((
        "heavy_certificate",
        MetricValue::Int(out.heavy_certificate.len() as i64),
    ));
    if let Some(diag) = &out.diagnostics {
        metrics.push(("bad_fraction", MetricValue::Float(diag.bad_fraction())));
        metrics.push((
            "max_estimate_error",
            MetricValue::Float(diag.max_estimate_error),
        ));
        metrics.push((
            "compared_vertices",
            MetricValue::Int(diag.compared_vertices as i64),
        ));
    }
}

fn dispatch(g: &Graph, spec: &RunSpec) -> Result<DispatchOut, CoreError> {
    let n = g.num_vertices();
    let maxdeg = g.max_degree();
    match spec.algorithm {
        AlgorithmKind::GreedyMis => {
            let mut cfg = GreedyMisConfig::new(spec.seed);
            cfg.executor = spec.executor.clone();
            if let Some(s) = spec.overrides.space_factor {
                cfg.space_factor = s;
            }
            let out = greedy_mpc_mis(g, &cfg)?;
            let witness = mis_witness(g, &out.mis, &spec.executor);
            let mut substrate = SubstrateReport::measure(&out.trace, log_log2(maxdeg.max(4)));
            substrate.substrate = "mpc";
            let metrics = vec![
                ("prefix_phases", MetricValue::Int(out.prefix_phases as i64)),
                ("local_rounds", MetricValue::Int(out.local_rounds as i64)),
                (
                    "max_phase_words",
                    MetricValue::Int(out.phase_edge_words.iter().copied().max().unwrap_or(0) as i64),
                ),
            ];
            let trace = out.trace.clone();
            Ok((
                vec![witness],
                substrate,
                trace,
                metrics,
                RunArtifacts::GreedyMis(out),
            ))
        }
        AlgorithmKind::CliqueMis => {
            let mut cfg = CliqueMisConfig::new(spec.seed);
            cfg.executor = spec.executor.clone();
            let out = clique_mis(g, &cfg)?;
            let witness = mis_witness(g, &out.mis, &spec.executor);
            let mut substrate = SubstrateReport::measure(&out.trace, log_log2(maxdeg.max(4)));
            substrate.substrate = "congested-clique";
            let metrics = vec![
                ("prefix_phases", MetricValue::Int(out.prefix_phases as i64)),
                ("local_rounds", MetricValue::Int(out.local_rounds as i64)),
            ];
            let trace = out.trace.clone();
            Ok((
                vec![witness],
                substrate,
                trace,
                metrics,
                RunArtifacts::CliqueMis(out),
            ))
        }
        AlgorithmKind::LocalMis => {
            // The paper uses the local process on already-sparsified
            // graphs; as a standalone run we drive it on the whole graph
            // and finish the residue greedily (the "gather onto one
            // machine" step, one extra round).
            let log2n = (n.max(2) as f64).log2();
            let cfg = LocalMisConfig {
                seed: spec.seed,
                max_rounds: (4.0 * log2n).ceil() as usize,
                target_edges: n.max(8),
            };
            let mut in_mis = Bitset::new(n);
            let mut undecided = Bitset::filled(n);
            let out = ghaffari_local_mis(g, &mut in_mis, &mut undecided, &cfg, &spec.executor);
            for v in 0..n {
                if undecided.get(v) {
                    in_mis.set(v);
                    for &u in g.neighbors(v as VertexId) {
                        undecided.clear(u as usize);
                    }
                }
            }
            let mis = IndependentSet::from_bitset_unchecked(&in_mis);
            let witness = check_witness(&spec.executor, "mis", mis.len(), || {
                validate::mis(g, &in_mis, &spec.executor)
            });
            // One exchange per process round plus the residual gather.
            let rounds = out.rounds + 1;
            let substrate =
                SubstrateReport::from_rounds("local", rounds, (maxdeg.max(2) as f64).log2());
            let metrics = vec![
                ("process_rounds", MetricValue::Int(out.rounds as i64)),
                (
                    "residual_edges",
                    MetricValue::Int(out.residual_edges as i64),
                ),
            ];
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::LocalMis(out, mis),
            ))
        }
        AlgorithmKind::LubyMis => {
            let out = luby_mis(g, spec.seed);
            let witness = mis_witness(g, &out.mis, &spec.executor);
            let substrate =
                SubstrateReport::from_rounds("luby", out.rounds, (n.max(2) as f64).log2());
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                Vec::new(),
                RunArtifacts::LubyMis(out),
            ))
        }
        AlgorithmKind::Central => {
            let cfg = match spec.overrides.threshold_mode {
                Some(ThresholdMode::Fixed) => CentralConfig::fixed(spec.eps),
                _ => CentralConfig::random(spec.eps, spec.seed),
            };
            let out = run_central(g, &cfg);
            let witness = check_witness(&spec.executor, "cover", out.cover.len(), || {
                validate::cover(g, &out.cover, &spec.executor)
            });
            // Lemma 4.1: O(log n / ε) iterations — the explicit bound is
            // ln(n) / ln(1/(1−ε)).
            let claimed = ((n.max(2) as f64).ln() / (1.0 / (1.0 - spec.eps.get())).ln()).ceil();
            let substrate = SubstrateReport::from_rounds("central", out.iterations, claimed);
            let metrics = vec![
                ("frac_weight", MetricValue::Float(out.fractional.weight())),
                (
                    "frac_feasible",
                    MetricValue::Flag(out.fractional.is_feasible(g)),
                ),
            ];
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::Central(out),
            ))
        }
        AlgorithmKind::MpcMatching => {
            let cfg = sim_config(spec);
            let out = mpc_simulation(g, &cfg)?;
            let witness = check_witness(&spec.executor, "cover", out.cover.len(), || {
                validate::cover(g, &out.cover, &spec.executor)
            });
            let mut substrate = SubstrateReport::measure(&out.trace, log_log2(n));
            substrate.substrate = "mpc";
            let mut metrics = Vec::new();
            push_sim_metrics(&mut metrics, &out, g);
            let trace = out.trace.clone();
            Ok((
                vec![witness],
                substrate,
                trace,
                metrics,
                RunArtifacts::MpcMatching(out),
            ))
        }
        AlgorithmKind::Filtering => {
            let mut cfg = FilteringConfig::new(spec.seed);
            cfg.executor = spec.executor.clone();
            if let Some(s) = spec.overrides.space_factor {
                cfg.space_factor = s;
            }
            let out = filtering_maximal_matching(g, &cfg)?;
            let witness = check_witness(&spec.executor, "matching", out.matching.len(), || {
                validate::maximal_matching(g, &out.matching, &spec.executor)
            });
            // LMSV Lemma 3.2: edges halve per filtering round w.h.p.
            let mut substrate = SubstrateReport::measure(&out.trace, (n.max(2) as f64).log2());
            substrate.substrate = "mpc";
            let metrics = vec![("filter_rounds", MetricValue::Int(out.filter_rounds as i64))];
            let trace = out.trace.clone();
            Ok((
                vec![witness],
                substrate,
                trace,
                metrics,
                RunArtifacts::Filtering(out),
            ))
        }
        AlgorithmKind::IntegralMatching => {
            let cfg = IntegralMatchingConfig {
                sim: sim_config(spec),
                max_extractions: None,
            };
            let out = integral_matching(g, &cfg)?;
            let witnesses = vec![
                check_witness(&spec.executor, "matching", out.matching.len(), || {
                    validate::matching(g, &out.matching)
                }),
                check_witness(&spec.executor, "cover", out.cover.len(), || {
                    validate::cover(g, &out.cover, &spec.executor)
                }),
            ];
            let substrate = SubstrateReport::from_rounds("mpc", out.total_rounds, log_log2(n));
            let metrics = vec![
                ("extractions", MetricValue::Int(out.extractions as i64)),
                ("used_fallback", MetricValue::Flag(out.used_fallback)),
            ];
            Ok((
                witnesses,
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::IntegralMatching(out),
            ))
        }
        AlgorithmKind::OnePlusEpsMatching => {
            let mut cfg = AugmentConfig::new(spec.eps, spec.seed);
            cfg.executor = spec.executor.clone();
            let out = one_plus_eps_matching(g, &cfg)?;
            let witness = check_witness(&spec.executor, "matching", out.matching.len(), || {
                validate::maximal_matching(g, &out.matching, &spec.executor)
            });
            // Corollary 1.3: O(log log n)·(1/ε)^O(1/ε) rounds; the
            // practical reference curve keeps the leading factors only.
            let claimed = log_log2(n) / spec.eps.get();
            let rounds = out.initial_rounds + out.passes;
            let substrate = SubstrateReport::from_rounds("mpc", rounds, claimed);
            let metrics = vec![
                ("passes", MetricValue::Int(out.passes as i64)),
                ("augmentations", MetricValue::Int(out.augmentations as i64)),
                ("path_limit", MetricValue::Int(out.path_limit as i64)),
                (
                    "initial_rounds",
                    MetricValue::Int(out.initial_rounds as i64),
                ),
            ];
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::OnePlusEps(out),
            ))
        }
        AlgorithmKind::WeightedMatching => {
            let wg = weighted_instance(g, spec);
            let mut cfg = WeightedMatchingConfig::new(spec.eps, spec.seed);
            cfg.executor = spec.executor.clone();
            let out = crate::matching::weighted_matching(&wg, &cfg)?;
            let witness = check_witness(&spec.executor, "matching", out.matching.len(), || {
                validate::matching(g, &out.matching)
            });
            // Corollary 1.4 pipelines one O(log log n) subroutine per
            // non-empty weight class.
            let claimed = (out.classes.max(1) as f64) * log_log2(n);
            let substrate = SubstrateReport::from_rounds("mpc", out.total_rounds, claimed);
            let metrics = vec![
                ("classes", MetricValue::Int(out.classes as i64)),
                ("total_weight", MetricValue::Float(out.total_weight)),
            ];
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::WeightedMatching(out, wg),
            ))
        }
        AlgorithmKind::VertexCover => {
            let cfg = VertexCoverConfig {
                sim: sim_config(spec),
            };
            let out = approx_min_vertex_cover(g, &cfg)?;
            let witness = check_witness(&spec.executor, "cover", out.cover.len(), || {
                validate::cover(g, &out.cover, &spec.executor)
            });
            let substrate = SubstrateReport::from_rounds("mpc", out.total_rounds, log_log2(n));
            let metrics = vec![
                (
                    "matching_lower_bound",
                    MetricValue::Int(out.matching_lower_bound as i64),
                ),
                ("certified_ratio", MetricValue::Float(out.certified_ratio)),
            ];
            Ok((
                vec![witness],
                substrate,
                ExecutionTrace::new(),
                metrics,
                RunArtifacts::VertexCover(out),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(kind: AlgorithmKind) -> RunSpec {
        let mut spec = RunSpec::new(kind, "gnp-sparse");
        spec.n = Some(128);
        spec.seed = 7;
        spec
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
            assert!(!kind.description().is_empty());
        }
        assert_eq!(AlgorithmKind::parse("nope"), None);
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let spec = RunSpec::new(AlgorithmKind::GreedyMis, "no-such-scenario");
        let err = run(&spec).unwrap_err();
        assert!(err.to_string().contains("unknown scenario"));
    }

    #[test]
    fn greedy_mis_run_reports_witness_and_trace() {
        let report = run(&small_spec(AlgorithmKind::GreedyMis)).unwrap();
        assert!(report.ok());
        assert_eq!(report.n, 128);
        assert_eq!(report.witnesses.len(), 1);
        assert_eq!(report.witnesses[0].kind, "mis");
        assert!(report.witnesses[0].valid);
        assert_eq!(report.substrate.rounds, report.trace.rounds());
        assert!(report.metric("prefix_phases").is_some());
        assert!(report.wall_ms >= 0.0);
    }

    #[test]
    fn budget_violations_are_reported_not_fatal() {
        let mut spec = small_spec(AlgorithmKind::GreedyMis);
        spec.budget.max_rounds = Some(1);
        spec.budget.max_load_words = Some(1);
        let report = run(&spec).unwrap();
        assert!(!report.ok());
        assert_eq!(report.budget_violations.len(), 2);
        assert!(report.witnesses_valid());
    }

    #[test]
    fn load_budget_on_unmetered_kind_is_a_violation_not_a_pass() {
        // Central only counts iterations; a load budget against it must
        // surface as a violation, never silently pass on the zero field.
        let mut spec = small_spec(AlgorithmKind::Central);
        spec.budget.max_load_words = Some(1_000_000);
        let report = run(&spec).unwrap();
        assert!(!report.substrate.metered);
        assert!(!report.ok());
        assert_eq!(report.budget_violations.len(), 1);
        assert!(
            report.budget_violations[0].contains("does not meter"),
            "got: {}",
            report.budget_violations[0]
        );
    }

    #[test]
    fn weighted_instance_is_stable_and_salted() {
        let spec = small_spec(AlgorithmKind::WeightedMatching);
        let g = build_scenario(&spec).unwrap();
        let a = weighted_instance(&g, &spec);
        let b = weighted_instance(&g, &spec);
        assert_eq!(a.weights(), b.weights());
        let (report, artifacts) = run_detailed(&g, "gnp-sparse", &spec).unwrap();
        assert!(report.ok());
        match artifacts {
            RunArtifacts::WeightedMatching(out, wg) => {
                assert_eq!(wg.weights(), a.weights());
                assert!(
                    (out.total_weight - report.metric_f64("total_weight").unwrap()).abs() < 1e-12
                );
            }
            other => panic!("wrong artifacts: {other:?}"),
        }
    }

    #[test]
    fn substrate_report_ratio_edges() {
        let r = SubstrateReport::from_rounds("x", 0, 0.0);
        assert_eq!(r.round_ratio(), 1.0);
        let r = SubstrateReport::from_rounds("x", 3, 0.0);
        assert_eq!(r.round_ratio(), f64::INFINITY);
        let r = SubstrateReport::from_rounds("x", 3, 6.0);
        assert!((r.round_ratio() - 0.5).abs() < 1e-12);
    }

    fn fields(pairs: &[(&str, SpecValue)]) -> Vec<(String, SpecValue)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn spec_from_fields_happy_path() {
        let spec = RunSpec::from_fields(&fields(&[
            ("algorithm", SpecValue::Str("greedy-mis".into())),
            ("scenario", SpecValue::Str("gnp-sparse".into())),
            ("n", SpecValue::Int(128)),
            ("eps", SpecValue::Float(0.05)),
            ("seed", SpecValue::Int(7)),
            ("max_rounds", SpecValue::Int(50)),
            ("max_load_words", SpecValue::Null),
        ]))
        .unwrap();
        assert_eq!(spec.algorithm, AlgorithmKind::GreedyMis);
        assert_eq!(spec.scenario, "gnp-sparse");
        assert_eq!(spec.n, Some(128));
        assert!((spec.eps.get() - 0.05).abs() < 1e-12);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.budget.max_rounds, Some(50));
        assert_eq!(spec.budget.max_load_words, None);
        assert!(run(&spec).unwrap().ok());
    }

    #[test]
    fn spec_from_fields_rejects_bad_input() {
        let cases: Vec<(Vec<(String, SpecValue)>, &str)> = vec![
            (fields(&[]), "algorithm"),
            (
                fields(&[("algorithm", SpecValue::Str("nope".into()))]),
                "unknown algorithm",
            ),
            (
                fields(&[("algorithm", SpecValue::Int(3))]),
                "expected a string",
            ),
            (
                fields(&[("algorithm", SpecValue::Str("central".into()))]),
                "give a workload",
            ),
            (
                fields(&[
                    ("algorithm", SpecValue::Str("central".into())),
                    ("scenario", SpecValue::Str("gnp-sparse".into())),
                    ("graph_file", SpecValue::Str("g.txt".into())),
                ]),
                "not both",
            ),
            (
                fields(&[
                    ("algorithm", SpecValue::Str("central".into())),
                    ("scenario", SpecValue::Str("gnp-sparse".into())),
                    ("frobnicate", SpecValue::Int(1)),
                ]),
                "unknown field `frobnicate`",
            ),
            (
                fields(&[
                    ("algorithm", SpecValue::Str("central".into())),
                    ("scenario", SpecValue::Str("gnp-sparse".into())),
                    ("n", SpecValue::Int(-5)),
                ]),
                "non-negative",
            ),
            (
                fields(&[
                    ("algorithm", SpecValue::Str("central".into())),
                    ("scenario", SpecValue::Str("gnp-sparse".into())),
                    ("seed", SpecValue::Str("abc".into())),
                ]),
                "expected an integer",
            ),
            (
                fields(&[
                    ("algorithm", SpecValue::Str("central".into())),
                    ("scenario", SpecValue::Str("gnp-sparse".into())),
                    ("eps", SpecValue::Float(0.9)),
                ]),
                "epsilon",
            ),
        ];
        for (input, expect) in cases {
            let err = RunSpec::from_fields(&input).unwrap_err().to_string();
            assert!(err.contains(expect), "`{err}` should mention `{expect}`");
        }
    }

    #[test]
    fn graph_file_workload_runs_and_errors_cleanly() {
        let dir = std::env::temp_dir();
        let path = dir.join("mmvc_run_graph_file_test.txt");
        let path_str = path.to_str().unwrap();
        let g = mmvc_graph::generators::gnp(64, 0.1, 3).unwrap();
        let mut buf = Vec::new();
        mmvc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let spec = RunSpec::from_file(AlgorithmKind::GreedyMis, path_str);
        let report = run(&spec).unwrap();
        assert!(report.ok());
        assert_eq!(report.n, 64);
        assert_eq!(report.scenario, format!("file:{path_str}"));

        // Identical to running on the same graph directly.
        let direct = run_on(&g, &format!("file:{path_str}"), &spec).unwrap();
        assert_eq!(report.witnesses, direct.witnesses);
        assert_eq!(report.substrate, direct.substrate);

        let mut bad = spec.clone();
        bad.n = Some(10);
        assert!(run(&bad).unwrap_err().to_string().contains("size override"));

        let missing = RunSpec::from_file(AlgorithmKind::GreedyMis, "/no/such/file.txt");
        let err = run(&missing).unwrap_err();
        assert!(matches!(err, CoreError::GraphFile { .. }), "{err}");
        assert!(err.to_string().contains("/no/such/file.txt"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_log_values() {
        assert!((log_log2(16) - 2.0).abs() < 1e-12);
        assert!((log_log2(65536) - 4.0).abs() < 1e-12);
        assert!(log_log2(0) > 0.0, "clamped to n=4");
    }

    #[test]
    fn report_json_is_deterministic_modulo_wall() {
        let spec = {
            let mut s = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
            s.n = Some(96);
            s.seed = 5;
            s
        };
        let mut a = run(&spec).unwrap();
        let mut b = run(&spec).unwrap();
        a.wall_ms = 0.0;
        b.wall_ms = 0.0;
        assert_eq!(report_json(&a).render(), report_json(&b).render());
        let doc = report_json(&a).render();
        assert!(doc.contains("\"algorithm\": \"greedy-mis\""));
        assert!(doc.contains("\"witnesses\""));
        assert!(doc.contains("\"trace\""));
    }
}

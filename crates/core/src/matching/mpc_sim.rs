//! `MPC-Simulation` (paper, Section 4.3): the `O(log log n)`-round MPC
//! simulation of `Central-Rand`, producing a `(2+O(ε))`-approximate
//! fractional maximum matching and integral minimum vertex cover
//! (Lemma 4.2).
//!
//! Structure, following the pseudocode:
//!
//! 1. While the degree bound `d` exceeds a polylog threshold, run a
//!    *phase*: partition the remaining vertices over `m = √d` machines,
//!    let every machine locally simulate iterations of `Central-Rand` on
//!    its induced subgraph using the scaled estimate
//!    `ỹ_v = m·Σ_local x_e + y_old(v)` and the shared random thresholds
//!    `T(v,t)`, then reconcile edge weights from the recorded freeze
//!    iterations, remove vertices whose weight exceeded 1, and freeze
//!    those above `1 − 2ε`.
//! 2. Once `d` is polylogarithmic, simulate the remaining iterations of
//!    `Central-Rand` directly (one MPC round each).
//!
//! ### Paper constants vs. practical constants
//!
//! The paper's constants are calibrated for the asymptotic analysis:
//! phases run `I = log m / (10 log 5)` iterations (so that the estimate
//! drift `5^I` stays below `m^{0.1}`, Lemma 4.15) and the loop exits at
//! `d ≤ log²⁰ n`. At experimentally reachable `n`, `log²⁰ n ≫ n` (the
//! loop would never run) and `I < 1`. [`PhaseSchedule`] therefore offers
//! both the literal constants ([`PhaseSchedule::Paper`]) and a
//! structure-preserving practical variant ([`PhaseSchedule::Practical`])
//! that keeps the estimate error in the regime the analysis needs while
//! making the `log log` phase behaviour observable:
//!
//! * `d` is the *measured* maximum active degree (the tightest bound
//!   Lemma 4.6 permits) instead of the worst-case pessimistic `n`;
//! * each phase grows edge weights by `F = max(2, ε·√d)`, which caps the
//!   estimate quantum `m·w` at `O(ε)` for every vertex in the phase's
//!   action band — the practical analogue of the `5^I ≤ m^{0.1}` drift
//!   bound — while still shrinking `d → √d/ε` per phase, i.e.
//!   `O(log log Δ)` phases;
//! * iterations in which *no* vertex can freeze (every estimate is below
//!   the minimum threshold `1 − 4ε`) are fast-forwarded inside the
//!   machine: this is exact, not an approximation, because a vertex with
//!   `ỹ < 1 − 4ε` cannot cross any admissible threshold.
//!
//! Experiment E8 measures the estimate drift and bad-vertex fraction under
//! this schedule — the quantities the paper's constants are engineered to
//! bound.
//!
//! ### The direct tail, pull-style
//!
//! Step (4) charges a round only to an iteration in which some vertex can
//! freeze, i.e. some active load reaches `1 − 4ε`. The other iterations
//! are no-ops, and they are skipped in computation as well as in rounds.
//! Each tail pass runs on the run's executor over fixed [`PAR_CHUNK`]
//! chunks of the sorted list of active vertices: every active vertex pulls
//! its load from its own sorted CSR row, and the same pass counts the
//! active edges (each at its lower endpoint) and collects the freeze set
//! in chunk order. The post-phase loads come from the same per-vertex sum.
//! Both are bit-identical to pushing over the lexicographic edge list:
//!
//! * that list reaches a vertex's terms in ascending-neighbour order —
//!   the order of its sorted row — and the pull adds the same `f64` terms
//!   in that order, from `0.0`;
//! * the weights come from a table whose entries are the same
//!   `w₀·growth.powi(k)` expression.
//!
//! While nothing freezes only `t` moves: a frozen neighbour's term is
//! fixed and an active one's is `w(t)`, which never decreases as `t`
//! grows. Rounded `f64` addition is monotone, so "some active load reaches
//! `1 − 4ε`" can only turn from false to true. A gallop (`t+1, t+3, t+7,
//! …`) and a bisection over the same pass therefore find the next
//! iteration that can freeze exactly, in logarithmically many passes.

use crate::epsilon::Epsilon;
use crate::error::CoreError;
use crate::matching::central::{ThresholdRule, NEVER_FROZEN};
use crate::matching::fractional::FractionalMatching;
use crate::matching::partition::random_vertex_partition;
use crate::PAR_CHUNK;
use mmvc_graph::rng::hash2;
use mmvc_graph::vertex_cover::VertexCover;
use mmvc_graph::{Graph, VertexId};
use mmvc_substrate::mpc::{Cluster, MpcConfig};
use mmvc_substrate::{ExecutorConfig, Substrate};

/// Iterations-per-phase and loop-exit schedule; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSchedule {
    /// The literal constants of the pseudocode: assumed `d` starting at
    /// `n` decaying by `(1−ε)^I` with `I = log m / (10 log 5)` (at least
    /// 1), phase loop while `d > log²⁰ n`.
    Paper,
    /// Structure-preserving practical constants (measured `d`, weight
    /// growth `F = max(2, ε·√d)` per phase, no-op fast-forwarding, exit at
    /// `d ≤ max(16, log² n)`). See the module docs.
    Practical,
}

impl PhaseSchedule {
    /// The `d` value at or below which the phase loop exits.
    pub fn d_min(&self, n: usize) -> f64 {
        let log2n = (n.max(2) as f64).log2();
        match self {
            PhaseSchedule::Paper => log2n.powi(20),
            PhaseSchedule::Practical => log2n.powi(2).max(16.0),
        }
    }
}

/// How the freezing thresholds are drawn (ablation knob).
///
/// The paper's §4.2 explains why a *fixed* threshold makes the
/// distributed estimates fragile — any estimation error near the single
/// threshold flips decisions — and §4.3 introduces the random thresholds
/// to fix it. [`ThresholdMode::Fixed`] exists to reproduce that failure
/// mode experimentally (ablation E11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdMode {
    /// `T(v,t) ~ U[1−4ε, 1−2ε]` (the paper's `Central-Rand`, default).
    #[default]
    Random,
    /// Fixed `T = 1−2ε` (the naive §4.2 simulation, for ablations).
    Fixed,
}

/// Configuration of [`mpc_simulation`].
#[derive(Debug, Clone, PartialEq)]
pub struct MpcMatchingConfig {
    /// Approximation parameter `ε`.
    pub eps: Epsilon,
    /// Seed for thresholds and partitioning.
    pub seed: u64,
    /// Phase schedule (paper vs. practical constants).
    pub schedule: PhaseSchedule,
    /// Per-machine memory is `space_factor · n` words (paper: `O(n)`).
    pub space_factor: f64,
    /// When set, the simulation also runs the coupled `Central-Rand`
    /// reference with identical thresholds and reports deviation
    /// diagnostics (Definition 4.9 / Lemma 4.15 quantities).
    pub diagnostics: bool,
    /// Threshold drawing mode (ablation knob; default random).
    pub threshold_mode: ThresholdMode,
    /// Machine-count multiplier: each phase uses `ceil(c·√d)` machines
    /// (paper: `c = 1`). Larger `c` shrinks per-machine subgraphs but
    /// *increases* estimate noise `∝ √(m/deg)` — ablation E12.
    pub machine_factor: f64,
    /// How per-machine local work executes (results are identical for any
    /// executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

impl MpcMatchingConfig {
    /// Default configuration: practical schedule, 8n words per machine,
    /// random thresholds, `m = √d`, no diagnostics, threaded executor.
    pub fn new(eps: Epsilon, seed: u64) -> Self {
        MpcMatchingConfig {
            eps,
            seed,
            schedule: PhaseSchedule::Practical,
            space_factor: 8.0,
            diagnostics: false,
            threshold_mode: ThresholdMode::Random,
            machine_factor: 1.0,
            executor: ExecutorConfig::default(),
        }
    }

    /// The sublinear-memory regime the paper sketches at the end of §1.3:
    /// `S = Θ(n / reduction)` words per machine (for a polylogarithmic
    /// `reduction` factor), compensated by `√reduction`-times more
    /// machines per phase so each induced subgraph still fits
    /// (`n·d/m² = n/reduction` edges), at the cost of `reduction^{1/4}`
    /// more estimate noise.
    ///
    /// # Panics
    ///
    /// Panics if `reduction < 1` or is not finite.
    pub fn sublinear(eps: Epsilon, seed: u64, reduction: f64) -> Self {
        assert!(
            reduction.is_finite() && reduction >= 1.0,
            "memory reduction factor must be >= 1, got {reduction}"
        );
        MpcMatchingConfig {
            eps,
            seed,
            schedule: PhaseSchedule::Practical,
            space_factor: 8.0 / reduction,
            diagnostics: false,
            threshold_mode: ThresholdMode::Random,
            machine_factor: reduction.sqrt(),
            executor: ExecutorConfig::default(),
        }
    }
}

/// Deviation diagnostics from the coupled `Central-Rand` reference run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDiagnostics {
    /// Vertices whose freeze behaviour diverged from the reference in some
    /// phase (Definition 4.9), summed over phases.
    pub bad_vertices: usize,
    /// Vertices that were compared at least once (active at some phase
    /// start), summed over phases — denominator for the bad fraction.
    pub compared_vertices: usize,
    /// Largest observed `|y_v − ỹ_v|` over all phase iterations and
    /// vertices active in both processes (Lemma 4.15 bounds this by
    /// `m^{-0.1}` under the paper's constants).
    pub max_estimate_error: f64,
}

impl SimDiagnostics {
    /// Fraction of compared vertices that went bad (0 when nothing was
    /// compared).
    pub fn bad_fraction(&self) -> f64 {
        if self.compared_vertices == 0 {
            0.0
        } else {
            self.bad_vertices as f64 / self.compared_vertices as f64
        }
    }
}

/// Output of [`mpc_simulation`].
#[derive(Debug, Clone)]
pub struct MpcMatchingOutcome {
    /// The fractional matching (Lemma 4.2: weight within `(2+50ε)` of the
    /// maximum matching). Edges incident to removed vertices carry zero
    /// weight.
    pub fractional: FractionalMatching,
    /// The vertex cover: all frozen vertices plus all removed ones
    /// (Lemma 4.2: within `(2+50ε)` of the minimum vertex cover).
    pub cover: VertexCover,
    /// Vertices of the cover whose fractional weight is at least `1 − 5ε`
    /// — the set `C̃` handed to the Lemma 5.1 rounding (Lemma 4.2
    /// guarantees at least `|C|/3` of them).
    pub heavy_certificate: Vec<VertexId>,
    /// Number of phases executed by the main loop.
    pub phases: usize,
    /// Total `Central-Rand` iterations covered (simulated + fast-forwarded
    /// + tail).
    pub iterations: usize,
    /// Iterations executed by the direct tail simulation (step (4)).
    pub tail_iterations: usize,
    /// Vertices removed for exceeding weight 1 (line (i)).
    pub removed: Vec<bool>,
    /// Per-vertex freeze iteration ([`NEVER_FROZEN`] = never froze).
    pub freeze_iteration: Vec<u32>,
    /// The metered MPC execution (rounds, per-machine loads).
    pub trace: mmvc_substrate::ExecutionTrace,
    /// Deviation diagnostics, when requested via
    /// [`MpcMatchingConfig::diagnostics`].
    pub diagnostics: Option<SimDiagnostics>,
}

/// Internal mutable state shared by phases and tail.
struct SimState<'g> {
    g: &'g Graph,
    eps: Epsilon,
    thresholds: ThresholdRule,
    w0: f64,
    growth: f64,
    /// `w₀·growth^k` for the first iterations `k` (see [`Self::weight`]).
    weights: Vec<f64>,
    /// Freeze iteration per vertex (`NEVER_FROZEN` = active).
    freeze: Vec<u32>,
    /// Removed (weight exceeded 1) per vertex.
    removed: Vec<bool>,
    /// Global iteration counter `t`.
    t: u32,
    /// Executor for per-machine local scans (deterministic chunking).
    exec: ExecutorConfig,
}

impl SimState<'_> {
    fn is_active_vertex(&self, v: usize) -> bool {
        !self.removed[v] && self.freeze[v] == NEVER_FROZEN
    }

    /// Current weight of active edges, `w_t = w₀ / (1−ε)^t`.
    fn w_t(&self) -> f64 {
        self.w0 * self.growth.powi(self.t as i32)
    }

    /// Weight `w₀·growth^k` of an edge that froze at iteration `k`, or of
    /// an active edge at iteration `k`: a table entry while the table
    /// lasts, the same expression computed directly after it.
    fn weight(&self, k: u32) -> f64 {
        match self.weights.get(k as usize) {
            Some(&w) => w,
            None => self.w0 * self.growth.powi(k as i32),
        }
    }

    /// Weight of an edge at the current iteration, `0` if an endpoint was
    /// removed (endpoint form — every scan iterates the edge view, so no
    /// per-index decode is ever needed).
    fn edge_weight_of(&self, e: mmvc_graph::Edge) -> f64 {
        let (u, v) = (e.u() as usize, e.v() as usize);
        if self.removed[u] || self.removed[v] {
            return 0.0;
        }
        self.weight(self.freeze[u].min(self.freeze[v]).min(self.t))
    }

    /// Vertex `v`'s load at iteration `t` (`0` once removed), pulled from
    /// its sorted row, and how many of its active neighbours lie above it
    /// (summed over the active vertices, that counts every active edge
    /// once).
    fn load_at(&self, v: usize, t: u32) -> (f64, usize) {
        let (mut y, mut active_above) = (0.0f64, 0usize);
        if self.removed[v] {
            return (y, active_above);
        }
        let t = self.freeze[v].min(t);
        for &u in self.g.neighbors(v as u32) {
            let ui = u as usize;
            if self.removed[ui] {
                continue;
            }
            let frozen_at = self.freeze[ui];
            if frozen_at == NEVER_FROZEN && ui > v {
                active_above += 1;
            }
            let w = self.weight(frozen_at.min(t));
            if w > 0.0 {
                y += w;
            }
        }
        (y, active_above)
    }

    /// Exact vertex loads `yᴹᴾᶜ` over `G[V']` at the current iteration:
    /// one pull per vertex over fixed chunks.
    fn vertex_weights(&self) -> Vec<f64> {
        self.exec
            .run_chunked(self.g.num_vertices(), PAR_CHUNK, |range| {
                range.map(|v| self.load_at(v, self.t).0).collect::<Vec<_>>()
            })
            .concat()
    }

    /// One fused tail pass at iteration `t` over the sorted `active`
    /// vertices: the active-edge count, whether some load reaches the
    /// minimum threshold, and the freeze set in chunk order. A vertex's
    /// threshold is hashed only when its load reaches the minimum, which
    /// every threshold is at least (rounding is monotone).
    fn tail_pass(&self, active: &[VertexId], t: u32) -> TailPass {
        let min_threshold = self.thresholds.min_threshold(self.eps);
        self.exec
            .run_chunked(active.len(), PAR_CHUNK, |range| {
                let mut pass = TailPass::default();
                for &v in &active[range] {
                    let (y, active_above) = self.load_at(v as usize, t);
                    pass.active_edges += active_above;
                    if y >= min_threshold {
                        pass.can_freeze = true;
                        if y >= self.thresholds.threshold(self.eps, v, t) {
                            pass.freezes.push(v);
                        }
                    }
                }
                pass
            })
            .into_iter()
            .fold(TailPass::default(), |mut all, chunk| {
                all.active_edges += chunk.active_edges;
                all.can_freeze |= chunk.can_freeze;
                all.freezes.extend(chunk.freezes);
                all
            })
    }

    /// The first iteration after the current one, and below `cap`, at
    /// which some active load reaches the minimum threshold, with its
    /// pass; `None` if there is none. The current iteration must be one
    /// that cannot freeze.
    ///
    /// Until such an iteration only `t` moves, so "can freeze" is
    /// monotone in `t` (see the module docs): probes at `t+1, t+3, t+7,
    /// …` (each capped at `cap − 1`) bracket the first one, and a
    /// bisection finds it. Without `fast_forward` it steps one iteration
    /// at a time.
    fn next_freeze(
        &self,
        active: &[VertexId],
        cap: u32,
        fast_forward: bool,
    ) -> Option<(u32, TailPass)> {
        let (mut lo, mut step) = (self.t, 1u32);
        while lo + 1 < cap {
            let hi = if fast_forward {
                lo.saturating_add(step).min(cap - 1)
            } else {
                lo + 1
            };
            let mut first = self.tail_pass(active, hi);
            if !first.can_freeze {
                lo = hi;
                step = step.saturating_mul(2);
                continue;
            }
            let mut hi = hi;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let pass = self.tail_pass(active, mid);
                if pass.can_freeze {
                    (hi, first) = (mid, pass);
                } else {
                    lo = mid;
                }
            }
            return Some((hi, first));
        }
        None
    }

    /// Maximum degree among active edges (both endpoints active): every
    /// (simulated) machine scans its vertex chunk and the chunk maxima
    /// combine — an integer max, schedule-independent under any executor.
    fn max_active_degree(&self) -> usize {
        let n = self.g.num_vertices();
        self.exec
            .run_chunked(n, PAR_CHUNK, |range| {
                range
                    .filter(|&v| self.is_active_vertex(v))
                    .map(|v| {
                        self.g
                            .neighbors(v as u32)
                            .iter()
                            .filter(|&&u| self.is_active_vertex(u as usize))
                            .count()
                    })
                    .max()
                    .unwrap_or(0)
            })
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    fn seed_base(&self) -> u64 {
        match self.thresholds {
            ThresholdRule::Random { seed } => seed ^ 0xA5A5_5A5A_DEAD_BEEF,
            ThresholdRule::Fixed => 0xA5A5_5A5A_DEAD_BEEF,
        }
    }
}

/// What one tail pass finds (see [`SimState::tail_pass`]).
#[derive(Default)]
struct TailPass {
    /// Edges with both endpoints active.
    active_edges: usize,
    /// Whether some active load reaches the minimum threshold.
    can_freeze: bool,
    /// The active vertices whose load reaches their threshold, ascending.
    freezes: Vec<VertexId>,
}

/// Bounds of step (4): its iteration cap and its round metering.
struct TailLimits {
    /// The tail stops at this iteration (see [`tail_cap`]).
    cap: u32,
    /// Machines that share the active edges.
    machines: usize,
    /// Words per machine.
    words: usize,
}

impl TailLimits {
    /// Charges one communicating tail iteration: one MPC round in which
    /// each machine holds its share of the active edges.
    fn charge(&self, cluster: &mut Cluster, active_edges: usize) -> Result<(), CoreError> {
        let share = (2 * active_edges).div_ceil(self.machines).max(1);
        cluster.charge_rounds(1, share.min(self.words))?;
        Ok(())
    }
}

/// Entries of the weight table. The tail of a run at `ε ≥ 0.01` and
/// `n ≤ 2^24` stays inside it; later iterations compute the same
/// expression directly.
const WEIGHT_TABLE_LEN: usize = 4096;

/// The tail's iteration cap: the iterations for the initial weight `w₀`
/// to grow to 1 plus two boundary iterations, as `Central`'s cap, in
/// saturating `u64`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when the cap passes the iterations
/// whose weights are provably non-decreasing in `f64` and whose exponent
/// fits an `i32`: a tail clamped below it would stop with edges still
/// active, and its fast-forward would not be exact past it. Binary
/// powering rounds `growth^k` to within a factor `e^{±(k−1)u}` (`u` is
/// half of [`f64::EPSILON`]), so consecutive weights keep their order
/// while `(2k−1)·u < ln growth`; the bound takes half of that for slack.
/// It refuses `ε` below about `5·10⁻⁸` at `n = 256` and `8·10⁻⁸` at
/// `n = 2^20`.
fn tail_cap(eps: Epsilon, w0: f64, n: usize) -> Result<u32, CoreError> {
    let cap = (eps.iterations_to_grow(w0, 1.0) as u64).saturating_add(2);
    let exact = ((eps.growth_factor().ln() / (2.0 * f64::EPSILON)) as u64).min(i32::MAX as u64);
    if cap > exact {
        return Err(CoreError::InvalidParameter {
            name: "eps",
            message: format!(
                "{eps} is too small for n = {n}: the direct simulation needs {cap} \
                 iterations, past the {exact} it can index exactly"
            ),
        });
    }
    Ok(cap as u32)
}

/// The two whole-graph scans whose results a run depends on: the exact
/// loads of the post-phase reconciliation, and step (4). Tests swap in
/// the push-style originals to check that the outcome is identical.
struct Scans {
    vertex_weights: fn(&SimState<'_>) -> Vec<f64>,
    tail: fn(&mut SimState<'_>, &mut Cluster, &TailLimits) -> Result<usize, CoreError>,
}

/// The pull scans every run uses.
const PULL: Scans = Scans {
    vertex_weights: |state| state.vertex_weights(),
    tail: run_tail,
};

/// How a phase decides its length.
enum PhasePlan {
    /// Exactly this many simulated iterations (paper constants).
    FixedIterations(usize),
    /// Simulate (with exact no-op fast-forwarding) until the active edge
    /// weight has grown by this factor.
    GrowthWithSkip(f64),
}

/// Runs `MPC-Simulation` (paper, Section 4.3).
///
/// Returns the fractional matching, vertex cover, and full execution
/// metering; see [`MpcMatchingOutcome`].
///
/// # Errors
///
/// * [`CoreError::Substrate`] if a machine's memory budget is exceeded
///   while gathering an induced subgraph — the simulator verifies the
///   paper's `O(n)`-per-machine claim instead of assuming it.
/// * [`CoreError::InvalidParameter`] for a non-positive `space_factor` or
///   `machine_factor`, or an `ε` so small that the direct simulation
///   would need more iterations than its weights can index exactly
///   (below about `10⁻⁷`).
pub fn mpc_simulation(
    g: &Graph,
    config: &MpcMatchingConfig,
) -> Result<MpcMatchingOutcome, CoreError> {
    simulate(g, config, &PULL)
}

/// [`mpc_simulation`] with the given whole-graph scans.
fn simulate(
    g: &Graph,
    config: &MpcMatchingConfig,
    scans: &Scans,
) -> Result<MpcMatchingOutcome, CoreError> {
    if !config.space_factor.is_finite() || config.space_factor <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "space_factor",
            message: format!("must be positive, got {}", config.space_factor),
        });
    }
    if !config.machine_factor.is_finite() || config.machine_factor <= 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "machine_factor",
            message: format!("must be positive, got {}", config.machine_factor),
        });
    }

    let n = g.num_vertices();
    let eps = config.eps;
    let w0 = (1.0 - 2.0 * eps.get()) / n.max(1) as f64;
    let growth = eps.growth_factor();
    let tail_cap = if g.num_edges() == 0 {
        0
    } else {
        tail_cap(eps, w0, n)?
    };

    // Cluster sized for the first (largest) phase: m = ceil(c·sqrt(n)).
    let max_machines = ((config.machine_factor * (n.max(4) as f64).sqrt()).ceil() as usize).max(2);
    let words = ((config.space_factor * n.max(1) as f64).ceil() as usize).max(16);
    let mut cluster = Cluster::new(MpcConfig::new(max_machines, words)?);
    cluster.set_telemetry(config.executor.telemetry());

    let thresholds = match config.threshold_mode {
        ThresholdMode::Random => ThresholdRule::Random { seed: config.seed },
        ThresholdMode::Fixed => ThresholdRule::Fixed,
    };
    let mut state = SimState {
        g,
        eps,
        thresholds,
        w0,
        growth,
        weights: (0..WEIGHT_TABLE_LEN.min(tail_cap as usize) as i32)
            .map(|k| w0 * growth.powi(k))
            .collect(),
        freeze: vec![NEVER_FROZEN; n],
        removed: vec![false; n],
        t: 0,
        exec: config.executor.clone(),
    };
    let mut diagnostics = config.diagnostics.then(SimDiagnostics::default);

    if g.num_edges() == 0 {
        return Ok(finish(state, 0, 0, cluster, diagnostics));
    }

    let d_min = config.schedule.d_min(n);
    // Assumed degree bound for the Paper schedule.
    let mut d_assumed = n as f64;
    let mut phases = 0usize;
    // Guards against schedule misconfiguration; unreachable in practice.
    let phase_cap = 10_000usize;

    loop {
        if phases >= phase_cap {
            break;
        }
        let (d, plan) = match config.schedule {
            PhaseSchedule::Paper => {
                if d_assumed <= d_min {
                    break;
                }
                let m = d_assumed.sqrt().ceil() as usize;
                let i = (((m as f64).ln() / (10.0 * 5f64.ln())) as usize).max(1);
                (d_assumed, PhasePlan::FixedIterations(i))
            }
            PhaseSchedule::Practical => {
                let d_act = state.max_active_degree() as f64;
                if d_act <= d_min {
                    break;
                }
                // Action-window growth per phase: the ε·d^(1/4) term is the
                // asymptotic schedule (it dominates exactly where the
                // estimate noise ~ d^(-1/4) is small enough to afford long
                // phases); the 1.5 floor keeps windows short at practical
                // scales so that one unlucky partition cannot strand a
                // vertex past weight 1 before the next exact
                // reconciliation.
                let factor = (eps.get() * d_act.powf(0.25)).max(1.5);
                (d_act, PhasePlan::GrowthWithSkip(factor))
            }
        };

        let m = ((config.machine_factor * d.sqrt()).ceil() as usize).clamp(2, max_machines);
        let covered = run_phase(&mut state, &mut cluster, &mut diagnostics, m, &plan, phases)?;
        if let PhaseSchedule::Paper = config.schedule {
            d_assumed *= (1.0 - eps.get()).powi(covered as i32);
        }
        phases += 1;

        // Post-phase reconciliation (lines (h)–(j)): exact weights.
        let y = (scans.vertex_weights)(&state);
        #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
        for v in 0..n {
            if state.removed[v] {
                continue;
            }
            if y[v] > 1.0 {
                // Line (i): remove from V', goes to the cover.
                state.removed[v] = true;
            } else if state.freeze[v] == NEVER_FROZEN && y[v] > 1.0 - 2.0 * eps.get() {
                // Line (j): freeze heavy-but-feasible vertices.
                state.freeze[v] = state.t;
            }
        }
    }

    // Step (4): direct simulation of the remaining Central-Rand
    // iterations until every edge is frozen.
    let limits = TailLimits {
        cap: tail_cap,
        machines: max_machines,
        words,
    };
    let tail_iterations = (scans.tail)(&mut state, &mut cluster, &limits)?;

    Ok(finish(state, phases, tail_iterations, cluster, diagnostics))
}

/// Step (4): the remaining `Central-Rand` iterations, simulated directly
/// until every edge is frozen or `limits.cap` is reached. Returns the
/// iterations that communicated.
///
/// An iteration in which some vertex could freeze (its load reaches the
/// minimum threshold `1−4ε`) costs one MPC round. One that provably
/// freezes nothing needs no communication — every machine can grow its
/// local weights deterministically — so it is charged no round, and it
/// is skipped without a pass of its own (see the module docs).
fn run_tail(
    state: &mut SimState<'_>,
    cluster: &mut Cluster,
    limits: &TailLimits,
) -> Result<usize, CoreError> {
    let n = state.g.num_vertices();
    let mut active: Vec<VertexId> = (0..n as u32)
        .filter(|&v| state.is_active_vertex(v as usize))
        .collect();
    // The fast-forward is exact while weights never decrease in `t`: the
    // table is checked here, and `tail_cap` bounds the iterations past it.
    let fast_forward = state.weights.windows(2).all(|w| w[0] <= w[1]);
    let mut tail_iterations = 0usize;
    let mut pass = state.tail_pass(&active, state.t);
    while pass.active_edges > 0 && state.t < limits.cap {
        if !pass.can_freeze {
            match state.next_freeze(&active, limits.cap, fast_forward) {
                Some((t, first)) => (state.t, pass) = (t, first),
                None => {
                    state.t = limits.cap;
                    break;
                }
            }
        }
        for &v in &pass.freezes {
            state.freeze[v as usize] = state.t;
        }
        active.retain(|&v| state.freeze[v as usize] == NEVER_FROZEN);
        tail_iterations += 1;
        limits.charge(cluster, pass.active_edges)?;
        state.t += 1;
        pass = state.tail_pass(&active, state.t);
    }
    Ok(tail_iterations)
}

/// One phase of the main loop (lines (a)–(e) of the pseudocode). Returns
/// the number of `Central-Rand` iterations covered (simulated + skipped).
fn run_phase(
    state: &mut SimState<'_>,
    cluster: &mut Cluster,
    diagnostics: &mut Option<SimDiagnostics>,
    m: usize,
    plan: &PhasePlan,
    phase_index: usize,
) -> Result<usize, CoreError> {
    let g = state.g;
    let n = g.num_vertices();
    let eps = state.eps;
    let t_min_threshold = state.thresholds.min_threshold(eps);

    // Line (b): y_old — weight of already-frozen edges of G[V'].
    let mut y_old = vec![0.0f64; n];
    // Active edges of G[V'] (line (a)).
    let mut active_edges: Vec<(u32, u32)> = Vec::new();
    for e in g.edges() {
        let (u, v) = (e.u() as usize, e.v() as usize);
        if state.removed[u] || state.removed[v] {
            continue;
        }
        if state.is_active_vertex(u) && state.is_active_vertex(v) {
            active_edges.push((e.u(), e.v()));
        } else {
            let w = state.edge_weight_of(e);
            y_old[u] += w;
            y_old[v] += w;
        }
    }

    // Line (d): random vertex partition of V' (all non-removed vertices).
    let v_prime: Vec<VertexId> = (0..n as u32)
        .filter(|&v| !state.removed[v as usize])
        .collect();
    let part_seed = hash2(state.seed_base(), phase_index as u64);
    let machine_of = |v: u32| -> usize { (hash2(part_seed, v as u64) % m as u64) as usize };
    let parts = random_vertex_partition(&v_prime, m, part_seed);

    // Local induced subgraphs: adjacency among same-machine active edges.
    let mut local_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut local_edge_count = vec![0usize; m];
    for &(u, v) in &active_edges {
        let mu = machine_of(u);
        if mu == machine_of(v) {
            local_adj[u as usize].push(v);
            local_adj[v as usize].push(u);
            local_edge_count[mu] += 1;
        }
    }

    // One MPC round: every machine receives its vertices + induced edges.
    // This is where the paper's O(n)-memory claim (Lemma 4.7) is enforced.
    cluster.round(|r| {
        for (i, part) in parts.iter().enumerate() {
            r.receive(i, part.len() + 2 * local_edge_count[i])?;
        }
        Ok(())
    })?;

    // Local active degree (within the machine) per vertex.
    let mut local_deg: Vec<usize> = local_adj.iter().map(Vec::len).collect();

    // Coupled Central-Rand reference for diagnostics: starts from the same
    // state (Section 4.4.3: "we assume that at the beginning of each phase
    // MPC-Simulation and Central-Rand start from the same fractional
    // matching").
    let mut ref_freeze = diagnostics.as_ref().map(|_| state.freeze.clone());
    let compared: usize = v_prime
        .iter()
        .filter(|&&v| state.is_active_vertex(v as usize))
        .count();

    // Active local vertices, for the per-iteration scans.
    let active_list: Vec<VertexId> = v_prime
        .iter()
        .copied()
        .filter(|&v| state.is_active_vertex(v as usize))
        .collect();

    let t0 = state.t;
    // For the growth plan, the weight target is set lazily at the *first
    // possible action*: iterations in which no estimate can reach the
    // minimum threshold are exact no-ops, so the pre-action ramp is skipped
    // without consuming the phase's action window (and without extra
    // rounds — it happens inside the machines).
    let (mut iterations_left, mut w_target): (usize, Option<f64>) = match plan {
        PhasePlan::FixedIterations(i) => (*i, None),
        PhasePlan::GrowthWithSkip(_) => (usize::MAX, None),
    };

    // Reference step: freeze by *exact* loads with the same thresholds.
    let ref_step = |state: &SimState<'_>, rf: &mut Vec<u32>, tt: u32| -> Vec<f64> {
        let mut y = vec![0.0f64; n];
        for e in g.edges() {
            let (u, v) = (e.u() as usize, e.v() as usize);
            if state.removed[u] || state.removed[v] {
                continue;
            }
            let frozen_at = rf[u].min(rf[v]).min(tt);
            let w = state.w0 * state.growth.powi(frozen_at as i32);
            y[u] += w;
            y[v] += w;
        }
        let mut freezes = Vec::new();
        for &v in &v_prime {
            let vu = v as usize;
            if rf[vu] == NEVER_FROZEN && y[vu] >= state.thresholds.threshold(eps, v, tt) {
                freezes.push(vu);
            }
        }
        for v in freezes {
            rf[v] = tt;
        }
        y
    };

    loop {
        if iterations_left == 0 {
            break;
        }
        if let Some(target) = w_target {
            if state.w_t() >= target {
                break;
            }
        }
        let w_t = state.w_t();

        // Can anything freeze this iteration? The minimum admissible
        // threshold is 1-4ε, so iterations where every estimate is below
        // it are provably no-ops and can be fast-forwarded (Practical
        // plan; the Paper plan simulates them literally but they cost no
        // extra MPC rounds either way).
        // Per-machine estimate scan: each chunk reports (local max ŷ,
        // local min skip); `f64::max` / `u32::min` combine to the same
        // values regardless of chunk interleaving, so the result is
        // identical under any executor.
        let (max_y_hat, min_skip) = {
            let st = &*state;
            st.exec
                .run_chunked(active_list.len(), PAR_CHUNK, |range| {
                    let mut max_y = 0.0f64;
                    let mut skip = u32::MAX;
                    for &v in &active_list[range] {
                        let vu = v as usize;
                        if !st.is_active_vertex(vu) {
                            continue;
                        }
                        let local_part = m as f64 * w_t * local_deg[vu] as f64;
                        let y_hat = local_part + y_old[vu];
                        if y_hat > max_y {
                            max_y = y_hat;
                        }
                        // Iterations until this vertex's estimate could
                        // reach 1-4ε.
                        if local_deg[vu] > 0 {
                            let need = t_min_threshold - y_old[vu];
                            if need > 0.0 && local_part > 0.0 {
                                let k = ((need / local_part).ln() / st.growth.ln()).ceil().max(1.0);
                                skip = skip.min(k as u32);
                            }
                        }
                    }
                    (max_y, skip)
                })
                .into_iter()
                .fold((0.0f64, u32::MAX), |(my, ms), (cy, cs)| {
                    (my.max(cy), ms.min(cs))
                })
        };

        if max_y_hat < t_min_threshold {
            // Fast-forward: no freeze possible this iteration.
            if let PhasePlan::GrowthWithSkip(factor) = plan {
                if min_skip == u32::MAX {
                    // No vertex can ever act locally this phase (all local
                    // degrees zero): cover one growth window and stop.
                    let target = w_target.unwrap_or(w_t * factor);
                    let k = ((target / w_t).ln() / state.growth.ln()).ceil().max(1.0) as u32;
                    state.t += k;
                    break;
                }
                if diagnostics.is_none() {
                    let mut k = min_skip.max(1);
                    if let Some(target) = w_target {
                        // Do not overshoot an already-started action window.
                        let to_target = ((target / w_t).ln() / state.growth.ln()).ceil().max(1.0);
                        k = k.min(to_target as u32);
                    }
                    state.t += k;
                    continue;
                }
            }
            // Diagnostics (or the Paper plan) advance one iteration at a
            // time so the coupled reference observes every iteration.
            if let Some(rf) = ref_freeze.as_mut() {
                ref_step(state, rf, state.t);
            }
            state.t += 1;
            iterations_left = iterations_left.saturating_sub(1);
            continue;
        }

        // First possible action: open the phase's growth window.
        if let PhasePlan::GrowthWithSkip(factor) = plan {
            if w_target.is_none() {
                w_target = Some(w_t * factor);
            }
        }

        let tt = state.t;

        // Reference exact loads at iteration tt (for diagnostics only);
        // applying the reference freezes *after* measuring the drift uses
        // the same pre-iteration snapshot the estimate uses.
        let ref_y = ref_freeze.as_ref().map(|rf| {
            let mut y = vec![0.0f64; n];
            for e in g.edges() {
                let (u, v) = (e.u() as usize, e.v() as usize);
                if state.removed[u] || state.removed[v] {
                    continue;
                }
                let frozen_at = rf[u].min(rf[v]).min(tt);
                let w = state.w0 * state.growth.powi(frozen_at as i32);
                y[u] += w;
                y[v] += w;
            }
            y
        });

        // Line (e)(A): simultaneous freeze decisions from the snapshot.
        // Without diagnostics this is a pure per-machine filter over the
        // pre-iteration state — chunked, flattened in chunk order, so the
        // freeze set is identical under any executor. The diagnostics path
        // accumulates into `&mut diag` and stays sequential (it computes
        // the very same decisions).
        let to_freeze: Vec<u32> = if diagnostics.is_none() {
            let st = &*state;
            st.exec
                .run_chunked(active_list.len(), PAR_CHUNK, |range| {
                    active_list[range]
                        .iter()
                        .copied()
                        .filter(|&v| {
                            let vu = v as usize;
                            st.is_active_vertex(vu)
                                && m as f64 * w_t * local_deg[vu] as f64 + y_old[vu]
                                    >= st.thresholds.threshold(eps, v, tt)
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
        } else {
            let mut to_freeze = Vec::new();
            for &v in &active_list {
                let vu = v as usize;
                if !state.is_active_vertex(vu) {
                    continue;
                }
                let y_hat = m as f64 * w_t * local_deg[vu] as f64 + y_old[vu];
                if let (Some(diag), Some(ref_y), Some(rf)) =
                    (diagnostics.as_mut(), ref_y.as_ref(), ref_freeze.as_ref())
                {
                    if rf[vu] == NEVER_FROZEN {
                        let err = (ref_y[vu] - y_hat).abs();
                        if err > diag.max_estimate_error {
                            diag.max_estimate_error = err;
                        }
                    }
                }
                if y_hat >= state.thresholds.threshold(eps, v, tt) {
                    to_freeze.push(v);
                }
            }
            to_freeze
        };
        for v in to_freeze {
            state.freeze[v as usize] = tt;
            // Local edges to v become inactive.
            for &w in &local_adj[v as usize] {
                local_deg[w as usize] = local_deg[w as usize].saturating_sub(1);
            }
            local_deg[v as usize] = 0;
        }

        if let Some(rf) = ref_freeze.as_mut() {
            ref_step(state, rf, tt);
        }

        state.t = tt + 1;
        iterations_left = iterations_left.saturating_sub(1);
    }

    // Diagnostics: a vertex is bad if it is frozen in one process and not
    // the other at the end of the phase (Definition 4.9).
    if let (Some(diag), Some(rf)) = (diagnostics.as_mut(), ref_freeze.as_ref()) {
        let bad = v_prime
            .iter()
            .filter(|&&v| {
                let vu = v as usize;
                (state.freeze[vu] == NEVER_FROZEN) != (rf[vu] == NEVER_FROZEN)
            })
            .count();
        diag.bad_vertices += bad;
        diag.compared_vertices += compared;
    }

    // Under the adaptive growth plan, machines must agree on the phase's
    // iteration horizon (the paper's fixed `I` makes this implicit; the
    // first-action-adaptive window needs one min-aggregation round in
    // which every machine reports its earliest possible freeze
    // iteration — one word each).
    if matches!(plan, PhasePlan::GrowthWithSkip(_)) {
        cluster.charge_rounds(1, 1)?;
    }

    // Reconciliation round (lines (f)–(g) are O(1) rounds of bookkeeping).
    let update_words = v_prime
        .len()
        .div_ceil(cluster.config().num_machines())
        .max(1);
    cluster.charge_rounds(1, update_words.min(cluster.config().words_per_machine()))?;
    Ok((state.t - t0) as usize)
}

/// Assembles the outcome from the final state.
fn finish(
    state: SimState<'_>,
    phases: usize,
    tail_iterations: usize,
    cluster: Cluster,
    diagnostics: Option<SimDiagnostics>,
) -> MpcMatchingOutcome {
    let g = state.g;
    let n = g.num_vertices();
    let x: Vec<f64> = g.edges().iter().map(|e| state.edge_weight_of(e)).collect();
    let fractional = FractionalMatching::new(g, x)
        .expect("MPC-Simulation maintains feasibility via removal + exact tail");

    let in_cover: Vec<bool> = (0..n)
        .map(|v| state.removed[v] || state.freeze[v] != NEVER_FROZEN)
        .collect();
    let cover = VertexCover::from_mask_unchecked(in_cover.clone());

    let y = fractional.vertex_weights(g);
    let heavy_certificate: Vec<VertexId> = (0..n as u32)
        .filter(|&v| in_cover[v as usize] && !state.removed[v as usize])
        .filter(|&v| y[v as usize] >= 1.0 - 5.0 * state.eps.get() - 1e-9)
        .collect();

    MpcMatchingOutcome {
        fractional,
        cover,
        heavy_certificate,
        phases,
        iterations: state.t as usize,
        tail_iterations,
        removed: state.removed,
        freeze_iteration: state.freeze,
        trace: cluster.execution_trace().clone(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::{generators, matching, Graph};
    use proptest::prelude::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn cfg(seed: u64) -> MpcMatchingConfig {
        MpcMatchingConfig::new(eps(0.1), seed)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(10);
        let out = mpc_simulation(&g, &cfg(1)).unwrap();
        assert_eq!(out.phases, 0);
        assert_eq!(out.cover.len(), 0);
        assert_eq!(out.fractional.weight(), 0.0);
    }

    #[test]
    fn cover_is_valid_on_many_graphs() {
        for seed in 0..6u64 {
            for g in [
                generators::gnp(200, 0.05, seed).unwrap(),
                generators::gnp(200, 0.3, seed).unwrap(),
                generators::power_law(200, 2.5, 10.0, seed).unwrap(),
                generators::complete(40),
                generators::star(100),
                generators::cycle(101),
            ] {
                let out = mpc_simulation(&g, &cfg(seed)).unwrap();
                assert!(out.cover.covers(&g), "seed {seed}");
                assert!(out.fractional.is_feasible(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn approximation_quality_on_random_graphs() {
        // Lemma 4.2: (2 + 50ε)-approximation. We check the measurable dual
        // bounds: fractional weight >= |M*|/(2+50ε), |C| <= (2+50ε)·VC*
        // relaxed via VC* <= 2|M*|.
        let e = 0.1;
        let factor = 2.0 + 50.0 * e;
        for seed in 0..5u64 {
            for g in [
                generators::gnp(150, 0.08, seed).unwrap(),
                generators::gnp(256, 0.5, seed).unwrap(), // exercises phases
            ] {
                let out = mpc_simulation(&g, &cfg(seed)).unwrap();
                let mm = matching::blossom(&g).len() as f64;
                assert!(
                    out.fractional.weight() >= mm / factor,
                    "seed {seed}: weight {} < {} (|M*|={mm})",
                    out.fractional.weight(),
                    mm / factor
                );
                assert!(out.cover.len() as f64 >= mm, "cover below matching LB");
                assert!(
                    (out.cover.len() as f64) <= factor * 2.0 * mm.max(1.0),
                    "seed {seed}: cover {} too large vs |M*| {mm}",
                    out.cover.len()
                );
            }
        }
    }

    #[test]
    fn phases_executed_on_dense_instance() {
        // n = 2048, p = 0.15: max active degree ~340 exceeds
        // d_min = log² n = 121, so the phase loop must actually run.
        let g = generators::gnp(2048, 0.15, 3).unwrap();
        let out = mpc_simulation(&g, &cfg(3)).unwrap();
        assert!(
            out.phases >= 1,
            "expected at least one phase, got {}",
            out.phases
        );
        assert!(out.trace.rounds() > 0);
        assert!(out.cover.covers(&g));
        assert!(out.fractional.is_feasible(&g));
    }

    #[test]
    fn paper_schedule_degenerates_to_direct_simulation() {
        // log²⁰(n) >> n at this size: zero phases, pure tail.
        let g = generators::gnp(300, 0.05, 1).unwrap();
        let mut c = cfg(1);
        c.schedule = PhaseSchedule::Paper;
        let out = mpc_simulation(&g, &c).unwrap();
        assert_eq!(out.phases, 0);
        assert!(out.tail_iterations > 0);
        assert!(out.cover.covers(&g));
    }

    #[test]
    fn memory_budget_violation_reported() {
        // A dense graph with a starved memory budget must fail loudly.
        let g = generators::gnp(512, 0.5, 2).unwrap();
        let mut c = cfg(2);
        c.space_factor = 0.05; // ~26 words per machine: absurdly small
        let err = mpc_simulation(&g, &c).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Substrate(mmvc_substrate::SubstrateError::LoadExceeded {
                substrate: "mpc",
                ..
            })
        ));
    }

    #[test]
    fn heavy_certificate_is_heavy_and_large() {
        // Dense enough to run phases (deg ~120 > d_min = 68).
        let g = generators::gnp(300, 0.4, 7).unwrap();
        let out = mpc_simulation(&g, &cfg(7)).unwrap();
        assert!(out.phases >= 1);
        let y = out.fractional.vertex_weights(&g);
        for &v in &out.heavy_certificate {
            assert!(y[v as usize] >= 1.0 - 5.0 * 0.1 - 1e-6);
            assert!(out.cover.contains(v));
        }
        // Lemma 4.2: at least |C|/3 of the cover is heavy.
        assert!(
            3 * out.heavy_certificate.len() >= out.cover.len(),
            "heavy {} vs cover {}",
            out.heavy_certificate.len(),
            out.cover.len()
        );
    }

    #[test]
    fn diagnostics_reports_small_bad_fraction() {
        let g = generators::gnp(1024, 0.2, 11).unwrap();
        let mut c = cfg(11);
        c.diagnostics = true;
        let out = mpc_simulation(&g, &c).unwrap();
        let diag = out.diagnostics.expect("diagnostics requested");
        assert!(diag.compared_vertices > 0);
        // The estimate noise at n=1024 (d ≈ 205) is ~0.7·d^(-1/4) ≈ 0.18,
        // comparable to the 2ε = 0.2 threshold window, so transient
        // divergence is expected at this scale; experiment E8 shows the
        // fraction shrinking as n grows. This is a regression bound, not
        // the asymptotic claim.
        assert!(
            diag.bad_fraction() < 0.4,
            "bad fraction {} unexpectedly high",
            diag.bad_fraction()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::gnp(300, 0.05, 5).unwrap();
        let a = mpc_simulation(&g, &cfg(9)).unwrap();
        let b = mpc_simulation(&g, &cfg(9)).unwrap();
        assert_eq!(a.freeze_iteration, b.freeze_iteration);
        assert_eq!(a.fractional, b.fractional);
        let c = mpc_simulation(&g, &cfg(10)).unwrap();
        assert_ne!(a.freeze_iteration, c.freeze_iteration);
    }

    #[test]
    fn diagnostics_do_not_change_the_outcome() {
        // Fast-forwarding is exact: running with diagnostics (which
        // simulates every iteration literally) must give identical results.
        let g = generators::gnp(512, 0.3, 13).unwrap();
        let plain = mpc_simulation(&g, &cfg(13)).unwrap();
        let mut c = cfg(13);
        c.diagnostics = true;
        let with_diag = mpc_simulation(&g, &c).unwrap();
        assert_eq!(plain.freeze_iteration, with_diag.freeze_iteration);
        assert_eq!(plain.fractional, with_diag.fractional);
        assert_eq!(plain.phases, with_diag.phases);
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(4);
        let mut c = cfg(1);
        c.space_factor = 0.0;
        assert!(matches!(
            mpc_simulation(&g, &c),
            Err(CoreError::InvalidParameter {
                name: "space_factor",
                ..
            })
        ));
    }

    #[test]
    fn removed_vertices_edges_carry_zero_weight() {
        let g = generators::gnp(600, 0.3, 13).unwrap();
        let out = mpc_simulation(&g, &cfg(13)).unwrap();
        for (i, e) in g.edges().iter().enumerate() {
            if out.removed[e.u() as usize] || out.removed[e.v() as usize] {
                assert_eq!(out.fractional.edge_weight(i), 0.0);
            }
        }
    }

    #[test]
    fn sublinear_memory_regime_works() {
        // §1.3 remark: O(n/polylog) memory per machine still works. With
        // reduction 4, each machine holds ~2n words and phases use 2·√d
        // machines.
        let g = generators::gnp(1024, 0.2, 23).unwrap();
        let cfg = MpcMatchingConfig::sublinear(eps(0.1), 23, 4.0);
        let out = mpc_simulation(&g, &cfg).unwrap();
        assert!(out.cover.covers(&g));
        assert!(out.fractional.is_feasible(&g));
        assert!(
            out.trace.max_load_words() <= (8.0f64 / 4.0 * 1024.0).ceil() as usize,
            "sublinear budget respected: {}",
            out.trace.max_load_words()
        );
    }

    #[test]
    fn tiny_eps_completes_with_a_valid_cover() {
        // Millions of tail iterations, almost all of them no-ops.
        let g = generators::gnp(64, 0.1, 5).unwrap();
        let out = mpc_simulation(&g, &MpcMatchingConfig::new(eps(1e-6), 5)).unwrap();
        assert!(out.iterations > 1_000_000, "{}", out.iterations);
        assert!(out.cover.covers(&g));
        assert!(out.fractional.is_feasible(&g));
    }

    #[test]
    fn eps_past_the_exact_iteration_bound_is_refused() {
        let g = generators::path(4);
        let err = mpc_simulation(&g, &MpcMatchingConfig::new(eps(1e-9), 1)).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidParameter { name: "eps", .. }),
            "{err}"
        );
        // An edgeless graph has no tail to bound.
        assert!(mpc_simulation(&Graph::empty(4), &MpcMatchingConfig::new(eps(1e-9), 1)).is_ok());
    }

    /// A simulation state of `g` at iteration `t` with the given freeze
    /// iterations and removals, and a 64-entry weight table, so that both
    /// the table and the direct expression serve weights. The oracle's
    /// weights are the direct expression only.
    fn sim_state<'g>(
        g: &'g Graph,
        config: &MpcMatchingConfig,
        freeze: Vec<u32>,
        removed: Vec<bool>,
        t: u32,
    ) -> SimState<'g> {
        let eps = config.eps;
        let w0 = (1.0 - 2.0 * eps.get()) / g.num_vertices().max(1) as f64;
        SimState {
            g,
            eps,
            thresholds: ThresholdRule::Fixed,
            w0,
            growth: eps.growth_factor(),
            weights: (0..64).map(|k| w0 * eps.growth_factor().powi(k)).collect(),
            freeze,
            removed,
            t,
            exec: config.executor.clone(),
        }
    }

    /// Edge weight by the push scans: the original inline expression.
    fn push_edge_weight(state: &SimState<'_>, e: mmvc_graph::Edge) -> f64 {
        let (u, v) = (e.u() as usize, e.v() as usize);
        if state.removed[u] || state.removed[v] {
            return 0.0;
        }
        let frozen_at = state.freeze[u].min(state.freeze[v]).min(state.t);
        state.w0 * state.growth.powi(frozen_at as i32)
    }

    /// The push-style loads over the lexicographic edge list: the oracle
    /// of [`SimState::vertex_weights`].
    fn push_vertex_weights(state: &SimState<'_>) -> Vec<f64> {
        let mut y = vec![0.0f64; state.g.num_vertices()];
        for e in state.g.edges() {
            let w = push_edge_weight(state, e);
            if w > 0.0 {
                y[e.u() as usize] += w;
                y[e.v() as usize] += w;
            }
        }
        y
    }

    /// The tail that rescans the whole edge list in every iteration, no-op
    /// or not: the oracle of [`run_tail`].
    fn push_tail(
        state: &mut SimState<'_>,
        cluster: &mut Cluster,
        limits: &TailLimits,
    ) -> Result<usize, CoreError> {
        let (g, eps) = (state.g, state.eps);
        let n = g.num_vertices();
        let mut tail_iterations = 0usize;
        let t_min_threshold = state.thresholds.min_threshold(eps);
        loop {
            let active_edges = g
                .edges()
                .iter()
                .filter(|e| {
                    state.is_active_vertex(e.u() as usize) && state.is_active_vertex(e.v() as usize)
                })
                .count();
            if active_edges == 0 || state.t >= limits.cap {
                break;
            }
            let y = push_vertex_weights(state);
            if (0..n).any(|v| state.is_active_vertex(v) && y[v] >= t_min_threshold) {
                let to_freeze: Vec<usize> = (0..n)
                    .filter(|&v| {
                        state.is_active_vertex(v)
                            && y[v] >= state.thresholds.threshold(eps, v as u32, state.t)
                    })
                    .collect();
                for v in to_freeze {
                    state.freeze[v] = state.t;
                }
                tail_iterations += 1;
                limits.charge(cluster, active_edges)?;
            }
            state.t += 1;
        }
        Ok(tail_iterations)
    }

    const PUSH: Scans = Scans {
        vertex_weights: push_vertex_weights,
        tail: push_tail,
    };

    /// A test graph of one of seven families, sized from `n`.
    fn family_graph(family: usize, n: usize, seed: u64) -> Graph {
        let nf = n as f64;
        match family {
            0 => generators::gnp(n, 6.0 / nf, seed).unwrap(),
            // Dense enough that the phase loop runs.
            1 => generators::gnp(n / 10 + 60, 0.5, seed).unwrap(),
            2 => generators::power_law(n, 2.5, 8.0, seed).unwrap(),
            3 => {
                let r = (12.0 / (std::f64::consts::PI * nf)).sqrt();
                generators::random_geometric(n, r, seed).unwrap()
            }
            4 => generators::star(n),
            5 => generators::complete(n / 40 + 10),
            _ => generators::disjoint_edges(n / 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The pull scans reproduce the push oracle exactly — freeze
        /// iterations, removals, the bits of every edge weight, iteration
        /// counts and the metered trace — for every threshold mode,
        /// schedule and diagnostics setting, under the sequential and a
        /// 3-thread executor, on inputs whose active lists span chunks.
        #[test]
        fn pull_scans_match_the_push_oracle(
            shape in (0usize..7, 200usize..2600, any::<u64>()),
            eps_index in 0usize..3,
            knobs in (any::<bool>(), any::<bool>(), any::<bool>()),
            seed in any::<u64>()
        ) {
            let (family, n, graph_seed) = shape;
            let (fixed, paper, diagnostics) = knobs;
            let g = family_graph(family, n, graph_seed);
            let mut config = MpcMatchingConfig::new(eps([0.02, 0.05, 0.1][eps_index]), seed);
            config.threshold_mode = if fixed { ThresholdMode::Fixed } else { ThresholdMode::Random };
            config.schedule = if paper { PhaseSchedule::Paper } else { PhaseSchedule::Practical };
            config.diagnostics = diagnostics;
            config.executor = ExecutorConfig::sequential();
            let want = simulate(&g, &config, &PUSH).unwrap();
            let want_x: Vec<u64> = want.fractional.edge_weights().iter().map(|x| x.to_bits()).collect();
            for exec in [ExecutorConfig::sequential(), ExecutorConfig::with_threads(3)] {
                config.executor = exec;
                let got = mpc_simulation(&g, &config).unwrap();
                let got_x: Vec<u64> = got.fractional.edge_weights().iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&got.freeze_iteration, &want.freeze_iteration);
                prop_assert_eq!(&got.removed, &want.removed);
                prop_assert!(got_x == want_x, "edge weights differ");
                prop_assert_eq!(got.phases, want.phases);
                prop_assert_eq!(got.iterations, want.iterations);
                prop_assert_eq!(got.tail_iterations, want.tail_iterations);
                prop_assert_eq!(&got.trace, &want.trace);
                prop_assert_eq!(&got.diagnostics, &want.diagnostics);
                // The loads themselves, not only the decisions they lead
                // to, over the outcome's freeze pattern at three iterations.
                for t in [0, want.iterations / 2, want.iterations] {
                    let (freeze, removed) = (want.freeze_iteration.clone(), want.removed.clone());
                    let state = sim_state(&g, &config, freeze, removed, t as u32);
                    let bits = |y: Vec<f64>| y.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    prop_assert!(
                        bits(state.vertex_weights()) == bits(push_vertex_weights(&state)),
                        "loads differ at t = {}", t
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "memory reduction factor")]
    fn sublinear_rejects_bad_reduction() {
        let _ = MpcMatchingConfig::sublinear(eps(0.1), 0, 0.5);
    }

    #[test]
    fn few_removals_under_practical_schedule() {
        // Removal (line (i)) is the escape hatch for estimate failures; the
        // quantum-bounded schedule should keep it rare.
        let g = generators::gnp(1024, 0.2, 17).unwrap();
        let out = mpc_simulation(&g, &cfg(17)).unwrap();
        let removed = out.removed.iter().filter(|&&r| r).count();
        // The estimate noise at this scale is ~0.7·d^(-1/4) ≈ 0.18 per
        // window; with exact reconciliation every ~1.5x weight growth, the
        // removal escape hatch should stay well under 15%.
        assert!(
            removed as f64 / 1024.0 <= 0.15,
            "{} of 1024 vertices removed — estimates too coarse",
            removed
        );
    }
}

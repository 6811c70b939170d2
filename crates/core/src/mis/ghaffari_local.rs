//! The sparsified MIS subroutine: Ghaffari's local MIS process.
//!
//! Theorem 2.1 of the paper (quoting \[Gha17\]) supplies an
//! `O(log log Δ)`-round CONGESTED-CLIQUE MIS for graphs of
//! polylogarithmic degree, used as the second stage of the Theorem 1.1
//! algorithm once the greedy rank-prefix phases have thinned the graph.
//!
//! **Substitution (recorded in DESIGN.md):** we implement the *local
//! process* underlying that result — Ghaffari's SODA'16 desire-level MIS
//! dynamics. Every vertex maintains a desire level `p_v` (initially
//! `1/2`); per round it marks itself with probability `p_v`, joins the MIS
//! if no neighbor is marked, and halves (resp. doubles, capped at `1/2`)
//! its desire level according to whether its *effective degree*
//! `Σ_{u ∈ N(v)} p_u` is at least 2. For Δ = polylog(n) the process
//! shatters the graph within `O(log Δ) = O(log log n)` rounds w.h.p.,
//! after which the paper's algorithms gather the `O(n)`-edge residue onto
//! one machine. Each round uses one exchange of marks with neighbors, so
//! it costs `O(1)` rounds in both MPC and CONGESTED-CLIQUE — the only
//! properties the paper needs from the black box.
//!
//! ### Pull formulation on the executor
//!
//! A round is four passes over fixed [`PAR_CHUNK`]-vertex chunks on the
//! caller's executor, over word-packed masks: mark, the join test, the
//! isolated-vertex test, and one fused pass in which every undecided
//! vertex pulls its effective degree from its own sorted CSR row, sets
//! its next desire level and counts its undecided neighbors (half their
//! sum is the residual edge count). Only applying the joins is
//! sequential, in ascending id order. The result is bit-identical to
//! summing over the canonical edge list, under any thread count:
//!
//! * the edge list is lexicographic, so it reaches a vertex's terms in
//!   ascending-neighbor order — the order of its sorted row — and the
//!   pull adds the same `f64` terms in the same order, from `0.0`;
//! * `2^{-k}` comes from a table whose entries are powers of two, hence
//!   exactly `0.5f64.powi(k)`;
//! * levels are double-buffered, so no chunk reads a half-updated round;
//! * the isolated-vertex sweep is order-free: a vertex it absorbs has no
//!   undecided neighbor, so absorbing it changes no other vertex's test.

use crate::PAR_CHUNK;
use mmvc_graph::rng::hash3_unit;
use mmvc_graph::Graph;
use mmvc_substrate::{Bitset, ExecutorConfig};

/// Configuration for [`ghaffari_local_mis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalMisConfig {
    /// Seed for the per-round marking randomness.
    pub seed: u64,
    /// Maximum rounds to run (the callers use `O(log Δ)`).
    pub max_rounds: usize,
    /// Stop early once the number of edges among undecided vertices drops
    /// to this target (the "gather the rest onto one machine" threshold).
    pub target_edges: usize,
}

/// Output of [`ghaffari_local_mis`] (the masks are updated in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalMisOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Edges among undecided vertices when the process stopped.
    pub residual_edges: usize,
}

/// The largest desire-level exponent: `p_v = 2^{-k_v}`, `1 ≤ k_v ≤ 60`.
const MAX_LEVEL: u8 = 60;

/// `POW2_NEG[k] = 2^{-k}`. Halving a power of two is exact, so every
/// entry equals `0.5f64.powi(k)` bit for bit.
const POW2_NEG: [f64; MAX_LEVEL as usize + 1] = {
    let mut table = [1.0f64; MAX_LEVEL as usize + 1];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 0.5;
        k += 1;
    }
    table
};

/// Mask words per chunk: each chunk owns whole words of every mask.
const CHUNK_WORDS: usize = PAR_CHUNK / 64;
const _: () = assert!(
    PAR_CHUNK.is_multiple_of(64),
    "chunks must own whole mask words"
);

/// Runs Ghaffari's desire-level local MIS process on the subgraph of `g`
/// induced by `undecided` (callers pass the not-yet-decided vertices).
///
/// Vertices that join the MIS are set in `in_mis` (the stage only adds
/// bits and never consults it); they and their neighbors are cleared
/// from `undecided`, which on return holds the residual graph. Stops after
/// `max_rounds` rounds or once the residual graph has at most
/// `target_edges` edges, whichever comes first; the caller finishes the
/// residue (e.g. on a single machine). Per-round scans run on `exec`,
/// and the result is identical under any executor; the stage records one
/// `mis.local` span with its `rounds` and `residual_edges`.
///
/// # Panics
///
/// Panics if a mask's length differs from `g.num_vertices()`.
pub fn ghaffari_local_mis(
    g: &Graph,
    in_mis: &mut Bitset,
    undecided: &mut Bitset,
    config: &LocalMisConfig,
    exec: &ExecutorConfig,
) -> LocalMisOutcome {
    let n = g.num_vertices();
    assert!(
        in_mis.len() == n && undecided.len() == n,
        "mask length must equal n"
    );
    let mut span = exec.telemetry().span("mis.local");
    let pool = exec.scratch().cloned().unwrap_or_default();
    let word_bounds = chunk_bounds(undecided.words().len(), CHUNK_WORDS);
    let vertex_bounds = chunk_bounds(n, PAR_CHUNK);
    let mut marked = Bitset::new_in(&pool, n);
    // Vertices a test pass selected: the joiners, then the isolated.
    let mut found = Bitset::new_in(&pool, n);
    // Desire levels as exponents, double-buffered: a round reads `level`
    // and writes `next` (entries of decided vertices are never read).
    let mut level = vec![1u8; n];
    let mut next = vec![1u8; n];

    absorb_isolated(g, in_mis, undecided, &mut found, &word_bounds, exec);
    let mut residual_edges = {
        let undecided = &*undecided;
        exec.run_chunked(undecided.words().len(), CHUNK_WORDS, |words| {
            let mut degrees = 0;
            for wi in words {
                for_each_in_word(undecided.words()[wi], wi, |v| {
                    degrees += g
                        .neighbors(v as u32)
                        .iter()
                        .filter(|&&u| undecided.get(u as usize))
                        .count();
                });
            }
            degrees
        })
        .into_iter()
        .sum::<usize>()
            / 2
    };

    let mut rounds = 0usize;
    while rounds < config.max_rounds && residual_edges > config.target_edges {
        // Mark each undecided vertex with probability p_v.
        let round = rounds as u64;
        filter_pass(exec, &mut marked, undecided, &word_bounds, |v| {
            hash3_unit(config.seed, round, v as u64) < POW2_NEG[level[v] as usize]
        });

        // A marked vertex with no marked neighbor joins the MIS (marked
        // vertices are undecided, and nothing is decided between passes).
        filter_pass(exec, &mut found, &marked, &word_bounds, |v| {
            !g.neighbors(v as u32)
                .iter()
                .any(|&u| marked.get(u as usize))
        });
        for v in found.iter_ones() {
            in_mis.set(v);
            undecided.clear(v);
            for &u in g.neighbors(v as u32) {
                undecided.clear(u as usize);
            }
        }

        absorb_isolated(g, in_mis, undecided, &mut found, &word_bounds, exec);

        // Desire-level update from effective degrees, fused with the
        // residual count.
        let degrees: usize = exec
            .run_slabs(&mut next, &vertex_bounds, |c, next| {
                let first = c * CHUNK_WORDS;
                let last = (first + CHUNK_WORDS).min(undecided.words().len());
                let mut degrees = 0;
                for wi in first..last {
                    for_each_in_word(undecided.words()[wi], wi, |v| {
                        let mut eff = 0.0f64;
                        for &u in g.neighbors(v as u32) {
                            if undecided.get(u as usize) {
                                degrees += 1;
                                eff += POW2_NEG[level[u as usize] as usize];
                            }
                        }
                        let k = level[v];
                        next[v - c * PAR_CHUNK] = if eff >= 2.0 {
                            (k + 1).min(MAX_LEVEL)
                        } else {
                            k.saturating_sub(1).max(1)
                        };
                    });
                }
                degrees
            })
            .into_iter()
            .sum();
        std::mem::swap(&mut level, &mut next);

        rounds += 1;
        residual_edges = degrees / 2;
    }
    // No closing sweep: the last one ran after the last change to
    // `undecided`, and a sweep leaves nothing for the next to absorb.
    marked.recycle(&pool);
    found.recycle(&pool);
    span.arg("rounds", rounds as u64);
    span.arg("residual_edges", residual_edges as u64);

    LocalMisOutcome {
        rounds,
        residual_edges,
    }
}

/// `0, size, 2·size, …, len`: fixed chunk boundaries over `0..len`.
fn chunk_bounds(len: usize, size: usize) -> Vec<usize> {
    (0..len.div_ceil(size))
        .map(|c| c * size)
        .chain(std::iter::once(len))
        .collect()
}

/// Calls `f` on the vertex of every set bit of mask word `wi`, ascending.
#[inline]
fn for_each_in_word(word: u64, wi: usize, mut f: impl FnMut(usize)) {
    let mut rest = word;
    while rest != 0 {
        f(wi * 64 + rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

/// One chunked pass: `out` becomes the vertices of `from` that `keep`
/// accepts. Each chunk writes only its own words of `out`.
fn filter_pass(
    exec: &ExecutorConfig,
    out: &mut Bitset,
    from: &Bitset,
    word_bounds: &[usize],
    keep: impl Fn(usize) -> bool + Sync,
) {
    exec.run_slabs(out.words_mut(), word_bounds, |c, words| {
        for (i, word) in words.iter_mut().enumerate() {
            let wi = c * CHUNK_WORDS + i;
            let mut kept = 0u64;
            for_each_in_word(from.words()[wi], wi, |v| {
                if keep(v) {
                    kept |= 1 << (v % 64);
                }
            });
            *word = kept;
        }
    });
}

/// Undecided vertices whose neighbors are all decided can always join.
/// The test runs against one snapshot of `undecided`, which is exact
/// because absorbing such a vertex changes no other vertex's test.
fn absorb_isolated(
    g: &Graph,
    in_mis: &mut Bitset,
    undecided: &mut Bitset,
    isolated: &mut Bitset,
    word_bounds: &[usize],
    exec: &ExecutorConfig,
) {
    filter_pass(exec, isolated, undecided, word_bounds, |v| {
        g.neighbors(v as u32)
            .iter()
            .all(|&u| !undecided.get(u as usize))
    });
    let words = in_mis.words_mut().iter_mut().zip(undecided.words_mut());
    for ((m, u), &iso) in words.zip(isolated.words()) {
        *m |= iso;
        *u &= !iso;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;
    use mmvc_graph::mis::IndependentSet;
    use mmvc_graph::rng::hash2;
    use proptest::prelude::*;

    /// The push-style process over the canonical edge list, kept as the
    /// reference the chunked pull formulation must reproduce bit for bit.
    struct Reference {
        in_mis: Vec<bool>,
        decided: Vec<bool>,
        rounds: usize,
        residual_edges: usize,
    }

    fn reference_local_mis(g: &Graph, active: &[bool], config: &LocalMisConfig) -> Reference {
        assert_eq!(active.len(), g.num_vertices(), "mask length must equal n");
        let n = g.num_vertices();
        let mut in_mis = vec![false; n];
        let mut decided: Vec<bool> = (0..n).map(|v| !active[v]).collect();
        // Desire levels, as exponents: p_v = 2^{-k_v}, k_v >= 1.
        let mut level = vec![1u32; n];

        let residual_edge_count = |decided: &[bool]| -> usize {
            g.edges()
                .iter()
                .filter(|e| !decided[e.u() as usize] && !decided[e.v() as usize])
                .count()
        };

        // Undecided vertices whose neighbors are all decided can always join;
        // sweep before, during, and after the marking rounds.
        let absorb_isolated = |in_mis: &mut Vec<bool>, decided: &mut Vec<bool>| {
            for v in 0..n as u32 {
                if !decided[v as usize] && g.neighbors(v).iter().all(|&u| decided[u as usize]) {
                    in_mis[v as usize] = true;
                    decided[v as usize] = true;
                }
            }
        };
        absorb_isolated(&mut in_mis, &mut decided);

        let mut rounds = 0usize;
        let mut residual_edges = residual_edge_count(&decided);
        while rounds < config.max_rounds && residual_edges > config.target_edges {
            // Mark each undecided vertex with probability p_v.
            let marked: Vec<bool> = (0..n)
                .map(|v| {
                    !decided[v]
                        && hash3_unit(config.seed, rounds as u64, v as u64)
                            < 0.5f64.powi(level[v] as i32)
                })
                .collect();

            // A marked vertex with no marked undecided neighbor joins the MIS.
            let mut joins: Vec<u32> = Vec::new();
            for v in 0..n as u32 {
                if !marked[v as usize] || decided[v as usize] {
                    continue;
                }
                let blocked = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| marked[u as usize] && !decided[u as usize]);
                if !blocked {
                    joins.push(v);
                }
            }
            for v in joins {
                in_mis[v as usize] = true;
                decided[v as usize] = true;
                for &u in g.neighbors(v) {
                    decided[u as usize] = true;
                }
            }

            absorb_isolated(&mut in_mis, &mut decided);

            // Desire-level update from effective degrees.
            let mut eff = vec![0.0f64; n];
            for e in g.edges() {
                let (u, v) = (e.u() as usize, e.v() as usize);
                if !decided[u] && !decided[v] {
                    eff[u] += 0.5f64.powi(level[v] as i32);
                    eff[v] += 0.5f64.powi(level[u] as i32);
                }
            }
            for v in 0..n {
                if decided[v] {
                    continue;
                }
                if eff[v] >= 2.0 {
                    level[v] = (level[v] + 1).min(60);
                } else {
                    level[v] = level[v].saturating_sub(1).max(1);
                }
            }

            rounds += 1;
            residual_edges = residual_edge_count(&decided);
        }
        absorb_isolated(&mut in_mis, &mut decided);

        Reference {
            in_mis,
            decided,
            rounds,
            residual_edges,
        }
    }

    /// The masks and outcome of one run.
    struct Run {
        in_mis: Bitset,
        undecided: Bitset,
        out: LocalMisOutcome,
    }

    fn run(g: &Graph, active: &[bool], cfg: &LocalMisConfig, exec: &ExecutorConfig) -> Run {
        let mut in_mis = Bitset::new(g.num_vertices());
        let mut undecided = Bitset::new(g.num_vertices());
        for v in (0..active.len()).filter(|&v| active[v]) {
            undecided.set(v);
        }
        let out = ghaffari_local_mis(g, &mut in_mis, &mut undecided, cfg, exec);
        Run {
            in_mis,
            undecided,
            out,
        }
    }

    fn run_to_completion(g: &Graph, seed: u64) -> Run {
        let cfg = LocalMisConfig {
            seed,
            max_rounds: 10_000,
            target_edges: 0,
        };
        let active = vec![true; g.num_vertices()];
        run(g, &active, &cfg, &ExecutorConfig::sequential())
    }

    #[test]
    fn power_table_is_exact() {
        for (k, &p) in POW2_NEG.iter().enumerate() {
            assert_eq!(p.to_bits(), 0.5f64.powi(k as i32).to_bits(), "2^-{k}");
        }
    }

    #[test]
    fn produces_independent_set() {
        for seed in 0..5u64 {
            let g = generators::gnp(200, 0.05, seed).unwrap();
            let out = run_to_completion(&g, seed);
            let members = out.in_mis.iter_ones().map(|v| v as u32);
            let is = IndependentSet::new(&g, members).expect("must be independent");
            // With target_edges = 0 and generous rounds, everything decides;
            // undecided-free means the set is maximal.
            assert_eq!(out.out.residual_edges, 0);
            assert_eq!(out.undecided.count_ones(), 0);
            assert!(is.is_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn respects_active_mask() {
        let g = generators::complete(6);
        let mut active = vec![true; 6];
        active[0] = false;
        active[1] = false;
        let cfg = LocalMisConfig {
            seed: 1,
            max_rounds: 1000,
            target_edges: 0,
        };
        let out = run(&g, &active, &cfg, &ExecutorConfig::sequential());
        assert!(
            !out.in_mis.get(0) && !out.in_mis.get(1),
            "inactive vertices never join"
        );
        // Exactly one of the 4 active vertices joins (clique).
        assert_eq!(out.in_mis.count_ones(), 1);
    }

    #[test]
    fn round_budget_respected() {
        let g = generators::gnp(300, 0.1, 2).unwrap();
        let cfg = LocalMisConfig {
            seed: 2,
            max_rounds: 3,
            target_edges: 0,
        };
        let out = run(&g, &[true; 300], &cfg, &ExecutorConfig::sequential());
        assert!(out.out.rounds <= 3);
    }

    #[test]
    fn target_edges_early_exit() {
        let g = generators::gnp(300, 0.1, 3).unwrap();
        let target = g.num_edges() / 2;
        let cfg = LocalMisConfig {
            seed: 3,
            max_rounds: 10_000,
            target_edges: target,
        };
        let out = run(&g, &[true; 300], &cfg, &ExecutorConfig::sequential());
        assert!(out.out.residual_edges <= target);
    }

    #[test]
    fn shatters_low_degree_graph_quickly() {
        // Δ = polylog: the process should decide almost everything within
        // O(log Δ) rounds — allow a generous constant.
        let g = generators::gnp(2000, 4.0 / 2000.0, 4).unwrap(); // avg deg 4
        let cfg = LocalMisConfig {
            seed: 4,
            max_rounds: 40,
            target_edges: 0,
        };
        let out = run(&g, &[true; 2000], &cfg, &ExecutorConfig::sequential());
        let undecided = out.undecided.count_ones();
        assert!(
            undecided * 10 <= 2000,
            "only {undecided} of 2000 undecided expected fewer"
        );
    }

    #[test]
    fn empty_and_edgeless() {
        let g = Graph::empty(5);
        let out = run_to_completion(&g, 0);
        assert_eq!(out.in_mis.count_ones(), 5, "all isolated vertices join");
        assert_eq!(out.out.rounds, 0, "no residual edges, loop never runs");
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(150, 0.08, 5).unwrap();
        let a = run_to_completion(&g, 9);
        let b = run_to_completion(&g, 9);
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.out, b.out);
    }

    /// A test graph: G(n, p) or Chung–Lu power law at average degree `avg`.
    fn graph(power_law: bool, n: usize, avg: f64, seed: u64) -> Graph {
        if power_law {
            generators::power_law(n, 2.5, avg, seed).unwrap()
        } else {
            generators::gnp(n, (avg / n as f64).min(1.0), seed).unwrap()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chunked pull formulation reproduces the push reference
        /// bit for bit — masks, rounds and residual count — under the
        /// sequential and a 3-thread executor, on inputs that span
        /// several chunks.
        #[test]
        fn pull_matches_push_reference(
            shape in (any::<bool>(), 2usize..3000, 1.0f64..24.0, any::<u64>()),
            active_frac in 0.3f64..1.0,
            seed: u64,
            max_rounds in 0usize..30,
            target_frac in 0.0f64..0.5
        ) {
            let (power_law, n, avg, graph_seed) = shape;
            let g = graph(power_law, n, avg, graph_seed);
            let mask_seed = hash2(seed, 0xAC71);
            let active: Vec<bool> = (0..n)
                .map(|v| hash3_unit(mask_seed, 0, v as u64) < active_frac)
                .collect();
            let cfg = LocalMisConfig {
                seed,
                max_rounds,
                target_edges: (target_frac * g.num_edges() as f64) as usize,
            };
            let want = reference_local_mis(&g, &active, &cfg);
            let want_in_mis: Vec<usize> = (0..n).filter(|&v| want.in_mis[v]).collect();
            let want_undecided: Vec<usize> = (0..n).filter(|&v| !want.decided[v]).collect();
            for exec in [ExecutorConfig::sequential(), ExecutorConfig::with_threads(3)] {
                let got = run(&g, &active, &cfg, &exec);
                prop_assert_eq!(got.in_mis.iter_ones().collect::<Vec<_>>(), want_in_mis.clone());
                prop_assert_eq!(got.undecided.iter_ones().collect::<Vec<_>>(), want_undecided.clone());
                prop_assert_eq!(got.out.rounds, want.rounds);
                prop_assert_eq!(got.out.residual_edges, want.residual_edges);
            }
        }
    }
}

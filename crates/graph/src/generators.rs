//! Seeded random and structured graph generators.
//!
//! These produce the workloads for the experiment harness: Erdős–Rényi
//! `G(n,p)` / `G(n,m)` graphs, random bipartite graphs (the ad-allocation
//! scenarios), Chung–Lu power-law graphs (social networks, the motivating
//! workload of the paper's introduction), and assorted structured graphs
//! used as worst cases and unit-test fixtures.
//!
//! All generators are deterministic in their `seed` argument.
//!
//! # Parallel generation
//!
//! The hot generators ([`gnp`], [`gnm`], [`bipartite_gnp`],
//! [`barabasi_albert`], [`random_geometric`]) have `*_with` variants that
//! chunk the sampling over an [`ExecutorConfig`]. The decomposition is
//! **caller-fixed** — chunk boundaries and per-chunk RNG streams are
//! functions of `(n, seed)` alone, never of the thread count — so the output
//! graph is *thread-count-invariant*: `Sequential` and `Threaded{k}` produce
//! byte-identical graphs for every `k`. Chunk 0 continues the historical
//! sequential stream (`chunk_rng`), so every workload small enough to fit
//! one chunk (all the pinned scenario sizes) is bit-identical to the
//! generators the regression pins froze.

use crate::error::GraphError;
use crate::graph::{Edge, Graph, GraphBuilder, VertexId};
use crate::rng::hash2;
use mmvc_substrate::ExecutorConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Left-rows per task in the chunked `G(n,p)` sampler. Set to 2¹⁶ so that
/// every historically measured workload — the experiments sweep `gnp` up
/// to `n = 2¹⁶` (E1) — stays on the single-chunk (legacy-stream)
/// path; only the scale tier (`n ≥ 2²⁰`) actually chunks.
const GNP_ROW_CHUNK: usize = 1 << 16;

/// Sample quota per task in the chunked `G(n,m)` sampler.
const GNM_CHUNK: usize = 1 << 16;

/// Below this many cross pairs, [`bipartite_gnp`] keeps the historical
/// per-pair Bernoulli stream (the pinned path); above it, geometric skip
/// sampling takes over — at the scale-tier sizes the per-pair loop would be
/// `Θ(n²)` coin flips.
const BIP_DENSE_MAX_PAIRS: usize = 1 << 23;

/// Left rows per task in the skip-sampling bipartite path.
const BIP_ROW_CHUNK: usize = 1 << 12;

/// Below this `n`, [`barabasi_albert`] runs the historical exact sequential
/// process; above it, attachment is batched into fixed windows (see
/// [`barabasi_albert_with`]).
const BA_EXACT_MAX: usize = 1 << 13;

/// Vertices per attachment window in the batched Barabási–Albert path.
const BA_WINDOW: usize = 1 << 12;

/// Points per task in the chunked geometric-graph sampler.
const GEO_POINT_CHUNK: usize = 1 << 13;

/// Grid cells per task in the geometric edge scan.
const GEO_CELL_CHUNK: usize = 1 << 12;

/// Number of canonical pairs `(u, v)`, `u < v`, strictly before row `u` in
/// the row-major enumeration of the `n`-vertex pair space.
fn pair_row_offset(n: u64, u: u64) -> u64 {
    // u·(2n − u − 1) / 2, computed in u128 so it is exact for any u32 n.
    ((u as u128 * (2 * n as u128 - u as u128 - 1)) / 2) as u64
}

/// Decodes a linear index `k ∈ [0, n(n−1)/2)` into the `k`-th canonical
/// pair `(u, v)`, `u < v`, in row-major order — the inverse of the
/// triangular offset above. Row-major index order equals packed
/// `(u << 32) | v` order, so sorted indices decode to sorted edges.
fn pair_from_index(n: u64, k: u64) -> (u32, u32) {
    debug_assert!((k as u128) < n as u128 * (n as u128 - 1) / 2);
    // Float seed for the row: solve u² − (2n−1)u + 2k = 0, then correct
    // the ±1 rounding slop with exact integer offsets.
    let nf = n as f64;
    let disc = ((2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * k as f64).max(0.0);
    let mut u = (((2.0 * nf - 1.0) - disc.sqrt()) / 2.0) as u64;
    u = u.min(n.saturating_sub(2));
    while u > 0 && pair_row_offset(n, u) > k {
        u -= 1;
    }
    while u + 1 < n && pair_row_offset(n, u + 1) <= k {
        u += 1;
    }
    let v = u + 1 + (k - pair_row_offset(n, u));
    debug_assert!(v < n);
    (u as u32, v as u32)
}

/// The RNG of sampling chunk `chunk` for a generator seeded with `seed`.
///
/// Chunk 0 **is** the historical sequential stream, so any graph that fits
/// in one chunk is bit-identical to the pre-parallel generators (that is
/// what keeps the regression pins frozen). Later chunks get independent
/// streams derived from `(seed, chunk)` — never from the thread count.
fn chunk_rng(seed: u64, chunk: usize) -> SmallRng {
    if chunk == 0 {
        SmallRng::seed_from_u64(seed)
    } else {
        SmallRng::seed_from_u64(hash2(seed, chunk as u64))
    }
}

/// Capacity estimate for a Binomial(`pairs`, `p`) edge count: the mean plus
/// four standard deviations (reallocations are then vanishingly rare).
fn binomial_capacity(pairs: f64, p: f64) -> usize {
    let mean = pairs * p;
    (mean + 4.0 * (mean.max(1.0)).sqrt() + 16.0) as usize
}

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
///
/// Uses geometric skip sampling, so the running time is
/// `O(n + |E|)` rather than `O(n²)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `0 ≤ p ≤ 1`.
///
/// # Examples
///
/// ```
/// use mmvc_graph::generators::gnp;
/// let g = gnp(100, 0.05, 7)?;
/// assert_eq!(g.num_vertices(), 100);
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    gnp_with(n, p, seed, &ExecutorConfig::default())
}

/// [`gnp`] with an explicit executor: row ranges of fixed size are sampled
/// in parallel, each from its own seed-derived RNG stream (`chunk_rng`),
/// so the graph is byte-identical for every thread count — and identical to
/// the historical sequential generator whenever the rows fit one chunk.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `0 ≤ p ≤ 1`.
pub fn gnp_with(n: usize, p: f64, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameter {
            name: "p",
            message: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    if p == 0.0 || n < 2 {
        return Ok(GraphBuilder::new(n).build());
    }
    if p == 1.0 {
        return Ok(complete(n));
    }
    let pairs = n as f64 * (n - 1) as f64 / 2.0;
    let mut b = GraphBuilder::with_capacity_in(n, binomial_capacity(pairs, p), exec);
    // Geometric skip sampling: per row `u`, jump between successive
    // successes of a Bernoulli(p) stream over columns `u+1..n`, so the
    // running time is proportional to the number of edges generated.
    let log_q = (1.0 - p).ln();
    let rows = n - 1;
    // Chunk 0 is the historical stream *and* the historical arithmetic:
    // the division below rounds exactly like the pre-scale generator, so
    // every pinned workload stays bit-identical.
    let sample_rows_legacy = |rng: &mut SmallRng, lo: usize, hi: usize, out: &mut Vec<Edge>| {
        for row in lo..hi {
            let mut col = row as i64; // previous column; first candidate is row+1
            loop {
                let r: f64 = rng.gen::<f64>();
                // Failures before the next success in the Bernoulli(p) stream.
                let skip = ((1.0 - r).ln() / log_q).floor() as i64;
                col += 1 + skip.max(0);
                if col >= n as i64 {
                    break;
                }
                out.push(Edge::new(row as u32, col as u32));
            }
        }
    };
    let tasks = rows.div_ceil(GNP_ROW_CHUNK);
    if tasks <= 1 {
        let mut rng = chunk_rng(seed, 0);
        let mut out = Vec::new();
        sample_rows_legacy(&mut rng, 0, rows, &mut out);
        b.extend_edges(out).expect("in range");
    } else {
        // Scale-tier chunks (≥ 1) take the fast branchless form: the
        // reciprocal is hoisted so the inner loop is one log, one
        // multiply and integer adds — no division, no data-dependent
        // branch besides the row-exhausted check. Chunks emit packed
        // `(u << 32) | v` words straight into pooled buffers.
        let inv_log_q = 1.0 / log_q;
        let chunks: Vec<Vec<u64>> = exec.run(tasks, |c| {
            let mut rng = chunk_rng(seed, c);
            let lo = c * GNP_ROW_CHUNK;
            let hi = (lo + GNP_ROW_CHUNK).min(rows);
            // Rows [lo, hi) own columns (row, n): expected count per row
            // is p·(n−1−row).
            let row_pairs: f64 = (lo..hi).map(|r| (n - 1 - r) as f64).sum();
            let cap = binomial_capacity(row_pairs, p);
            let mut out = exec.take_u64(cap);
            if c == 0 {
                let mut edges = Vec::with_capacity(cap);
                sample_rows_legacy(&mut rng, lo, hi, &mut edges);
                out.extend(edges.iter().map(|e| ((e.u() as u64) << 32) | e.v() as u64));
            } else {
                for row in lo..hi {
                    let row_word = (row as u64) << 32;
                    let mut col = row as i64;
                    loop {
                        let r: f64 = rng.gen::<f64>();
                        let skip = ((1.0 - r).ln() * inv_log_q).floor() as i64;
                        col += 1 + skip.max(0);
                        if col >= n as i64 {
                            break;
                        }
                        out.push(row_word | col as u64);
                    }
                }
            }
            out
        });
        for chunk in chunks {
            b.extend_packed(&chunk)?;
            exec.recycle_u64(chunk);
        }
    }
    Ok(b.build_with(exec))
}

/// Erdős–Rényi `G(n, m)`: `m` distinct edges chosen uniformly at random.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m` exceeds `n·(n−1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Result<Graph, GraphError> {
    gnm_with(n, m, seed, &ExecutorConfig::default())
}

/// [`gnm`] with an explicit executor. Fixed-size sample quotas are drawn in
/// parallel, one seed-derived RNG stream per quota chunk; cross-chunk
/// collisions are deduplicated in chunk order and a final sequential
/// top-up stream (chunk index `tasks`) replaces them, so exactly `m`
/// distinct edges come out regardless of thread count.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m` exceeds `n·(n−1)/2`.
pub fn gnm_with(n: usize, m: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_m {
        return Err(GraphError::InvalidParameter {
            name: "m",
            message: format!("requested {m} edges but K_{n} has only {max_m}"),
        });
    }
    let mut b = GraphBuilder::with_capacity_in(n, m, exec);
    let sample_distinct =
        |rng: &mut SmallRng, quota: usize, set: &mut std::collections::HashSet<(u32, u32)>| {
            while set.len() < quota {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                set.insert(key);
            }
        };
    // Rejection sampling is fine while m ≤ max_m/2; otherwise sample the
    // complement (dense graphs are necessarily small — sequential is fine).
    if m * 2 <= max_m {
        let tasks = m.div_ceil(GNM_CHUNK).max(1);
        if tasks <= 1 {
            // The historical single-stream path, bit-for-bit.
            let mut rng = chunk_rng(seed, 0);
            let mut chosen = std::collections::HashSet::with_capacity(m * 2);
            sample_distinct(&mut rng, m, &mut chosen);
            for (u, v) in chosen {
                b.add_edge(u, v).expect("in range");
            }
        } else {
            // Scale path: every chunk draws a fixed quota of uniform
            // linear indices into the n(n−1)/2 canonical pair space (one
            // seed-derived stream each), the sorted union is deduplicated,
            // and skip-sampled top-up sweeps repair the collision
            // shortfall — no hash table anywhere, and every buffer comes
            // from the scratch arena.
            let total_pairs = pair_row_offset(n as u64, n as u64 - 1);
            let mut chosen = exec.take_u64(m + 16);
            let quotas: Vec<Vec<u64>> = exec.run(tasks, |c| {
                let quota = GNM_CHUNK.min(m - c * GNM_CHUNK);
                let mut rng = chunk_rng(seed, c);
                let mut local = exec.take_u64(quota);
                for _ in 0..quota {
                    local.push(rng.gen_range(0..total_pairs));
                }
                local
            });
            for q in quotas {
                chosen.extend_from_slice(&q);
                exec.recycle_u64(q);
            }
            chosen.sort_unstable();
            chosen.dedup();
            // Top-up rounds: sweep the pair space with a geometric skip
            // walk whose hit rate is sized to twice the shortfall (fresh
            // stream per round), keeping the first `short` new hits. The
            // walk is strictly increasing, so hits are sorted and
            // distinct by construction; truncating a sweep keeps its
            // low-index prefix, a bias of O(shortfall / m) — the
            // shortfall is the cross-chunk collision count, vanishingly
            // small next to m.
            let mut round = 0usize;
            while chosen.len() < m {
                let short = m - chosen.len();
                let free = total_pairs - chosen.len() as u64;
                let p_hit = ((2.0 * short as f64) / free as f64).min(1.0);
                let log_q = (1.0 - p_hit).ln();
                let mut rng = chunk_rng(seed, tasks + round);
                let mut fresh: Vec<u64> = Vec::with_capacity(short);
                let mut cand: u64 = 0;
                loop {
                    let r: f64 = rng.gen::<f64>();
                    let skip = ((1.0 - r).ln() / log_q).floor().max(0.0) as u64;
                    cand = cand.saturating_add(skip);
                    if cand >= total_pairs || fresh.len() == short {
                        break;
                    }
                    if chosen.binary_search(&cand).is_err() {
                        fresh.push(cand);
                    }
                    cand += 1;
                }
                chosen.extend_from_slice(&fresh);
                chosen.sort_unstable();
                round += 1;
            }
            // Row-major pair-index order equals packed edge order, so the
            // sorted indices decode straight into a sorted packed run.
            let mut packed = exec.take_u64(m);
            for &k in chosen.iter() {
                let (u, v) = pair_from_index(n as u64, k);
                packed.push(((u as u64) << 32) | v as u64);
            }
            b.extend_packed(&packed)?;
            exec.recycle_u64(packed);
            exec.recycle_u64(chosen);
        }
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        let holes = max_m - m;
        let mut removed = std::collections::HashSet::with_capacity(holes * 2);
        sample_distinct(&mut rng, holes, &mut removed);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if !removed.contains(&(u, v)) {
                    b.add_edge(u, v).expect("in range");
                }
            }
        }
    }
    Ok(b.build_with(exec))
}

/// Random bipartite graph: sides `0..n_left` and `n_left..n_left+n_right`,
/// each cross pair an edge independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `0 ≤ p ≤ 1`.
pub fn bipartite_gnp(
    n_left: usize,
    n_right: usize,
    p: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    bipartite_gnp_with(n_left, n_right, p, seed, &ExecutorConfig::default())
}

/// [`bipartite_gnp`] with an explicit executor. Below
/// `BIP_DENSE_MAX_PAIRS` cross pairs this is the historical per-pair
/// Bernoulli stream (bit-for-bit — the path the scenario pins froze);
/// above it, rows are chunked and sampled with geometric skips, one
/// seed-derived RNG stream per chunk, so a `2^38`-pair scale workload
/// costs `O(|E|)` draws instead of `Θ(n²)` and is thread-count-invariant.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `0 ≤ p ≤ 1`.
pub fn bipartite_gnp_with(
    n_left: usize,
    n_right: usize,
    p: f64,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameter {
            name: "p",
            message: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    let n = n_left + n_right;
    let pairs = n_left.saturating_mul(n_right);
    if pairs <= BIP_DENSE_MAX_PAIRS || p == 1.0 {
        let mut b = GraphBuilder::with_capacity(n, binomial_capacity(pairs as f64, p));
        let mut rng = SmallRng::seed_from_u64(seed);
        for u in 0..n_left as u32 {
            for v in 0..n_right as u32 {
                if rng.gen::<f64>() < p {
                    b.add_edge(u, n_left as u32 + v).expect("in range");
                }
            }
        }
        return Ok(b.build_with(exec));
    }
    let mut b = GraphBuilder::with_capacity_in(n, binomial_capacity(pairs as f64, p), exec);
    if p > 0.0 {
        let log_q = (1.0 - p).ln();
        // Chunk 0 keeps the historical division; later chunks hoist the
        // reciprocal (same fast form as the scale-tier `gnp` chunks).
        let inv_log_q = 1.0 / log_q;
        let tasks = n_left.div_ceil(BIP_ROW_CHUNK);
        let chunks: Vec<Vec<u64>> = exec.run(tasks, |c| {
            let mut rng = chunk_rng(seed, c);
            let lo = c * BIP_ROW_CHUNK;
            let hi = (lo + BIP_ROW_CHUNK).min(n_left);
            let row_pairs = (hi - lo) as f64 * n_right as f64;
            let mut out = exec.take_u64(binomial_capacity(row_pairs, p));
            for row in lo..hi {
                let row_word = (row as u64) << 32;
                let mut col = -1i64; // first candidate is column 0
                loop {
                    let r: f64 = rng.gen::<f64>();
                    let skip = if c == 0 {
                        ((1.0 - r).ln() / log_q).floor() as i64
                    } else {
                        ((1.0 - r).ln() * inv_log_q).floor() as i64
                    };
                    col += 1 + skip.max(0);
                    if col >= n_right as i64 {
                        break;
                    }
                    out.push(row_word | (n_left as i64 + col) as u64);
                }
            }
            out
        });
        for chunk in chunks {
            b.extend_packed(&chunk)?;
            exec.recycle_u64(chunk);
        }
    }
    Ok(b.build_with(exec))
}

/// Chung–Lu random graph with expected degree sequence `weights`:
/// pair `{u, v}` is an edge with probability `min(1, w_u w_v / Σw)`.
///
/// With `w_i ∝ i^(−1/(β−1))` this yields a power-law degree distribution
/// with exponent `β`; see [`power_law`].
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if any weight is negative or
/// non-finite, or all weights are zero while `weights` is non-empty.
pub fn chung_lu(weights: &[f64], seed: u64) -> Result<Graph, GraphError> {
    let n = weights.len();
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(GraphError::InvalidParameter {
            name: "weights",
            message: "all expected degrees must be finite and non-negative".into(),
        });
    }
    let total: f64 = weights.iter().sum();
    // The expected edge count is at most Σ_{u<v} w_u·w_v / Σw ≤ Σw / 2.
    let mut b = GraphBuilder::with_capacity(n, binomial_capacity(total / 2.0, 1.0));
    if n < 2 || total <= 0.0 {
        if n > 0 && total <= 0.0 && !weights.is_empty() {
            // All-zero weights: valid, produces the empty graph.
            return Ok(b.build());
        }
        return Ok(b.build());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // Sort vertices by descending weight for the standard efficient
    // Miller–Hagberg style generation; here we keep the O(n²) loop for
    // clarity but skip rows with negligible weight mass.
    for u in 0..n {
        if weights[u] == 0.0 {
            continue;
        }
        for v in (u + 1)..n {
            let p = (weights[u] * weights[v] / total).min(1.0);
            if p > 0.0 && rng.gen::<f64>() < p {
                b.add_edge(u as u32, v as u32).expect("in range");
            }
        }
    }
    Ok(b.build())
}

/// Power-law graph: Chung–Lu with weights `w_i = c · (i+1)^(−1/(β−1))`,
/// scaled so the average expected degree is `avg_degree`.
///
/// Typical social networks have `β ∈ [2, 3]`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `beta <= 1` or
/// `avg_degree < 0`.
pub fn power_law(n: usize, beta: f64, avg_degree: f64, seed: u64) -> Result<Graph, GraphError> {
    if beta <= 1.0 || !beta.is_finite() {
        return Err(GraphError::InvalidParameter {
            name: "beta",
            message: format!("power-law exponent must be > 1, got {beta}"),
        });
    }
    if avg_degree < 0.0 || !avg_degree.is_finite() {
        return Err(GraphError::InvalidParameter {
            name: "avg_degree",
            message: format!("average degree must be non-negative, got {avg_degree}"),
        });
    }
    let exponent = -1.0 / (beta - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exponent)).collect();
    let sum: f64 = weights.iter().sum();
    if sum > 0.0 && n > 0 {
        let scale = avg_degree * n as f64 / sum;
        for w in &mut weights {
            *w *= scale;
        }
    }
    chung_lu(&weights, seed)
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_mul(n.saturating_sub(1)) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v).expect("in range");
        }
    }
    b.build()
}

/// The path `P_n` on `n` vertices (`n − 1` edges).
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n as u32 {
        b.add_edge(v - 1, v).expect("in range");
    }
    b.build()
}

/// The cycle `C_n` (requires `n >= 3` to be simple; smaller `n` degrades to
/// a path).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 1..n as u32 {
        b.add_edge(v - 1, v).expect("in range");
    }
    if n >= 3 {
        b.add_edge(n as u32 - 1, 0).expect("in range");
    }
    b.build()
}

/// The star `K_{1,n−1}` with center `0`.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n as u32 {
        b.add_edge(0, v).expect("in range");
    }
    b.build()
}

/// The `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    grid_with(rows, cols, &ExecutorConfig::default())
}

/// [`grid`] with an explicit executor. Edge enumeration is deterministic
/// and cheap; the executor drives the CSR build, which dominates at the
/// scale tier.
pub fn grid_with(rows: usize, cols: usize, exec: &ExecutorConfig) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    // Exactly rows·(cols−1) horizontal + (rows−1)·cols vertical edges.
    let m = rows * cols.saturating_sub(1) + rows.saturating_sub(1) * cols;
    let mut b = GraphBuilder::with_capacity(n, m);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1)).expect("in range");
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c)).expect("in range");
            }
        }
    }
    b.build_with(exec)
}

/// The complete bipartite graph `K_{a,b}` (left side `0..a`).
pub fn complete_bipartite(a: usize, b_size: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(a + b_size, a * b_size);
    for u in 0..a as u32 {
        for v in 0..b_size as u32 {
            b.add_edge(u, a as u32 + v).expect("in range");
        }
    }
    b.build()
}

/// A disjoint union of `k` copies of `g` (vertex ids shifted per copy).
pub fn disjoint_union(g: &Graph, k: usize) -> Graph {
    let n = g.num_vertices();
    let mut b = GraphBuilder::with_capacity(n * k, g.num_edges() * k);
    for copy in 0..k {
        let off = (copy * n) as u32;
        for e in g.edges() {
            b.add_edge(e.u() + off, e.v() + off).expect("in range");
        }
    }
    b.build()
}

/// A graph of `k` disjoint edges (a perfect matching on `2k` vertices) —
/// the extremal instance where a maximum matching equals `n/2` and the MIS
/// equals `n/2`.
pub fn disjoint_edges(k: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(2 * k, k);
    for i in 0..k as u32 {
        b.add_edge(2 * i, 2 * i + 1).expect("in range");
    }
    b.build()
}

/// Planted-matching graph: a perfect matching on `2⌊n/2⌋` vertices
/// (edges `{2i, 2i+1}`) hidden under `G(n, noise_avg_degree/(n−1))`
/// noise edges.
///
/// The planted matching pins the maximum-matching size at `⌊n/2⌋`, so
/// matching algorithms can be scored against a known optimum without an
/// exact solver; the noise keeps the instance non-trivial.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `noise_avg_degree` is
/// negative or not finite.
pub fn planted_matching(n: usize, noise_avg_degree: f64, seed: u64) -> Result<Graph, GraphError> {
    planted_matching_with(n, noise_avg_degree, seed, &ExecutorConfig::default())
}

/// [`planted_matching`] with an explicit executor (the noise layer is a
/// [`gnp_with`] draw, which carries the parallelism).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `noise_avg_degree` is
/// negative or not finite.
pub fn planted_matching_with(
    n: usize,
    noise_avg_degree: f64,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    if !noise_avg_degree.is_finite() || noise_avg_degree < 0.0 {
        return Err(GraphError::InvalidParameter {
            name: "noise_avg_degree",
            message: format!("noise degree must be non-negative, got {noise_avg_degree}"),
        });
    }
    let p = if n >= 2 {
        (noise_avg_degree / (n - 1) as f64).min(1.0)
    } else {
        0.0
    };
    let noise = gnp_with(n, p, seed, exec)?;
    let mut b = GraphBuilder::with_capacity(n, noise.num_edges() + n / 2);
    for i in 0..(n / 2) as u32 {
        b.add_edge(2 * i, 2 * i + 1).expect("in range");
    }
    for e in noise.edges() {
        b.add_edge(e.u(), e.v()).expect("in range");
    }
    Ok(b.build_with(exec))
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `m_attach` existing vertices chosen with
/// probability proportional to their degree.
///
/// Produces power-law degree tails by growth rather than by explicit
/// weights (contrast [`power_law`]/Chung–Lu).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m_attach == 0` or
/// `m_attach >= n`.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Result<Graph, GraphError> {
    barabasi_albert_with(n, m_attach, seed, &ExecutorConfig::default())
}

/// [`barabasi_albert`] with an explicit executor.
///
/// Below `BA_EXACT_MAX` vertices this is the historical exact sequential
/// process (the path the scenario pins froze). Above it, attachment is
/// *batched*: vertices arrive in fixed windows of `BA_WINDOW`, every
/// vertex in a window samples its targets from the degree distribution as
/// of the window's start (per-vertex RNG streams derived from
/// `(seed, vertex)`), and the endpoint list is extended in vertex order
/// between windows. This is the standard delayed-update parallelization of
/// preferential attachment: within-window degree updates are deferred —
/// a `O(window/n)` perturbation of the attachment probabilities — in
/// exchange for embarrassingly parallel windows and thread-count-invariant
/// output.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m_attach == 0` or
/// `m_attach >= n`.
pub fn barabasi_albert_with(
    n: usize,
    m_attach: usize,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    if m_attach == 0 || m_attach >= n.max(1) {
        return Err(GraphError::InvalidParameter {
            name: "m_attach",
            message: format!("need 0 < m_attach < n, got {m_attach} with n = {n}"),
        });
    }
    let seed_size = m_attach + 1;
    let total_edges = seed_size * (seed_size - 1) / 2 + (n - seed_size) * m_attach;
    let mut b = GraphBuilder::with_capacity(n, total_edges);
    // Repeated-endpoints list: sampling a uniform element is sampling
    // proportional to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * total_edges);
    // Seed clique on m_attach + 1 vertices.
    for u in 0..seed_size as u32 {
        for v in (u + 1)..seed_size as u32 {
            b.add_edge(u, v).expect("in range");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    if n <= BA_EXACT_MAX {
        // Historical exact process, bit-for-bit.
        let mut rng = SmallRng::seed_from_u64(seed);
        for v in seed_size as u32..n as u32 {
            let mut targets = std::collections::HashSet::with_capacity(m_attach * 2);
            // Rejection-sample distinct targets by degree.
            while targets.len() < m_attach {
                let t = endpoints[rng.gen_range(0..endpoints.len())];
                targets.insert(t);
            }
            // Sort before inserting: HashSet iteration order would otherwise
            // leak into the endpoints list (and thus later samples), making
            // the generator nondeterministic across processes.
            let mut targets: Vec<VertexId> = targets.into_iter().collect();
            targets.sort_unstable();
            for t in targets {
                b.add_edge(v, t).expect("in range");
                endpoints.push(v);
                endpoints.push(t);
            }
        }
        return Ok(b.build_with(exec));
    }
    // Batched windows: sample in parallel from the frozen prefix, apply
    // updates in vertex order between windows.
    let mut next = seed_size;
    while next < n {
        let hi = (next + BA_WINDOW).min(n);
        let frozen = endpoints.len();
        let batch: Vec<Vec<VertexId>> = exec.run(hi - next, |i| {
            let v = (next + i) as u64;
            let mut rng = SmallRng::seed_from_u64(hash2(seed, v));
            let mut targets = std::collections::HashSet::with_capacity(m_attach * 2);
            while targets.len() < m_attach {
                let t = endpoints[rng.gen_range(0..frozen)];
                targets.insert(t);
            }
            let mut targets: Vec<VertexId> = targets.into_iter().collect();
            targets.sort_unstable();
            targets
        });
        for (i, targets) in batch.iter().enumerate() {
            let v = (next + i) as u32;
            for &t in targets {
                b.add_edge(v, t).expect("in range");
                endpoints.push(v);
                endpoints.push(t);
            }
        }
        next = hi;
    }
    Ok(b.build_with(exec))
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex
/// connects to its `k` nearest neighbors (`k` even), with each edge
/// rewired to a uniform endpoint with probability `beta`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is odd, `k >= n`, or
/// `beta` is outside `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Result<Graph, GraphError> {
    watts_strogatz_with(n, k, beta, seed, &ExecutorConfig::default())
}

/// [`watts_strogatz`] with an explicit executor. The rewiring stream is a
/// single sequential RNG by construction (each edge's rewire decision
/// consumes from one stream), so sampling stays sequential; the executor
/// drives the CSR build, which dominates at the scale tier.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is odd, `k >= n`, or
/// `beta` is outside `[0, 1]`.
pub fn watts_strogatz_with(
    n: usize,
    k: usize,
    beta: f64,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    if !k.is_multiple_of(2) || k >= n.max(1) {
        return Err(GraphError::InvalidParameter {
            name: "k",
            message: format!("need even k < n, got k = {k}, n = {n}"),
        });
    }
    if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
        return Err(GraphError::InvalidParameter {
            name: "beta",
            message: format!("rewiring probability must be in [0, 1], got {beta}"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // At most n·k/2 lattice edges survive rewiring/dedup.
    let mut b = GraphBuilder::with_capacity(n, n * k / 2);
    for u in 0..n {
        for step in 1..=k / 2 {
            let v = (u + step) % n;
            if u == v {
                continue;
            }
            let (mut a, mut c) = (u as u32, v as u32);
            if rng.gen::<f64>() < beta {
                // Rewire the far endpoint to a uniform non-self target.
                for _ in 0..16 {
                    let t = rng.gen_range(0..n as u32);
                    if t != a {
                        c = t;
                        break;
                    }
                }
            }
            if a == c {
                continue;
            }
            if a > c {
                std::mem::swap(&mut a, &mut c);
            }
            b.add_edge(a, c).expect("in range");
        }
    }
    Ok(b.build_with(exec))
}

/// Stochastic block model: `sizes[i]` vertices in block `i`; pair
/// probability `p_in` within a block, `p_out` across blocks. Vertices are
/// numbered block by block.
///
/// Generalizes the planted-partition workloads used by the correlation
/// clustering example.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless both probabilities are
/// in `[0, 1]`.
pub fn stochastic_block_model(
    sizes: &[usize],
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(GraphError::InvalidParameter {
                name,
                message: format!("probability must be in [0, 1], got {p}"),
            });
        }
    }
    let n: usize = sizes.iter().sum();
    let mut block_of = Vec::with_capacity(n);
    for (i, &s) in sizes.iter().enumerate() {
        block_of.extend(std::iter::repeat_n(i, s));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let intra_pairs: f64 = sizes
        .iter()
        .map(|&s| s as f64 * s.saturating_sub(1) as f64 / 2.0)
        .sum();
    let all_pairs = n as f64 * n.saturating_sub(1) as f64 / 2.0;
    let expected = intra_pairs * p_in + (all_pairs - intra_pairs) * p_out;
    let mut b = GraphBuilder::with_capacity(n, binomial_capacity(expected.max(1.0), 1.0));
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block_of[u] == block_of[v] {
                p_in
            } else {
                p_out
            };
            if p > 0.0 && rng.gen::<f64>() < p {
                b.add_edge(u as u32, v as u32).expect("in range");
            }
        }
    }
    Ok(b.build())
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance at most `radius`.
///
/// The classic model for wireless/sensor networks (the vertex-cover
/// monitoring workload).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `radius` is negative or
/// not finite.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    random_geometric_with(n, radius, seed, &ExecutorConfig::default())
}

/// [`random_geometric`] with an explicit executor: point coordinates are
/// drawn in fixed-size chunks (one seed-derived RNG stream each — chunk 0
/// continues the historical stream) and the 3×3 grid-neighborhood edge scan
/// is chunked over cells. Both decompositions are functions of `(n, seed)`
/// alone, so the graph is byte-identical for every thread count.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `radius` is negative or
/// not finite.
pub fn random_geometric_with(
    n: usize,
    radius: f64,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    if !radius.is_finite() || radius < 0.0 {
        return Err(GraphError::InvalidParameter {
            name: "radius",
            message: format!("radius must be non-negative, got {radius}"),
        });
    }
    let point_tasks = n.div_ceil(GEO_POINT_CHUNK).max(1);
    let points: Vec<(f64, f64)> = if point_tasks <= 1 {
        let mut rng = chunk_rng(seed, 0);
        (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    } else {
        exec.run(point_tasks, |c| {
            let mut rng = chunk_rng(seed, c);
            let lo = c * GEO_POINT_CHUNK;
            let hi = (lo + GEO_POINT_CHUNK).min(n);
            (lo..hi)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect::<Vec<_>>()
        })
        .concat()
    };
    // Grid-bucket the points so the expected running time is
    // O(n + |E|) instead of O(n²). The grid is a CSR-style flat table —
    // one offsets array and one payload array, built by a counting-sort
    // pass — so bucketing costs two allocations (both pooled) instead of
    // one `Vec` per cell. The side length is capped near √n so the table
    // stays O(n) cells even for tiny radii; a cell is then at least
    // `radius` wide either way, so the neighborhood stencil below remains
    // exhaustive.
    let side = ((1.0 / radius.max(1e-9)).floor() as usize).clamp(1, (n as f64).sqrt() as usize + 1);
    let cell_of = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x * side as f64) as usize).min(side - 1),
            ((y * side as f64) as usize).min(side - 1),
        )
    };
    let cells = side * side;
    // Counting-sort pass 1: cell id per point + per-cell counts.
    let mut cell_id = exec.take_u32(n);
    let mut grid_off = exec.take_u32(cells + 1);
    grid_off.resize(cells + 1, 0);
    for &(x, y) in &points {
        let (cx, cy) = cell_of(x, y);
        let c = cy * side + cx;
        cell_id.push(c as u32);
        grid_off[c + 1] += 1;
    }
    for c in 0..cells {
        grid_off[c + 1] += grid_off[c];
    }
    // Pass 2: scatter point ids, cursor per cell.
    let mut cursor = exec.take_u32(cells);
    cursor.extend_from_slice(&grid_off[..cells]);
    let mut payload = exec.take_u32(n);
    payload.resize(n, 0);
    for (i, &c) in cell_id.iter().enumerate() {
        let at = cursor[c as usize] as usize;
        payload[at] = i as u32;
        cursor[c as usize] += 1;
    }
    exec.recycle_u32(cell_id);
    exec.recycle_u32(cursor);
    let bucket = |c: usize| -> &[u32] { &payload[grid_off[c] as usize..grid_off[c + 1] as usize] };
    let r2 = radius * radius;
    let expected = binomial_capacity(
        n as f64 * n.saturating_sub(1) as f64 / 2.0,
        (std::f64::consts::PI * r2).min(1.0),
    );
    let mut b = GraphBuilder::with_capacity_in(n, expected, exec);
    // Edge scan, chunked over cells: each task owns a fixed cell range and
    // emits each candidate pair exactly once — within-cell pairs plus the
    // four forward-neighbor cells (the half stencil), half the probes of
    // the full 3×3 sweep. Cell ownership never depends on the thread
    // count, and the builder's sort + dedup normalizes emission order.
    let scan: Vec<Vec<u64>> = exec.run_chunked(cells, GEO_CELL_CHUNK, |cell_range| {
        let mut out = exec.take_u64(0);
        let probe = |u: u32, v: u32, out: &mut Vec<u64>| {
            let (x1, y1) = points[u as usize];
            let (x2, y2) = points[v as usize];
            let d2 = (x1 - x2).powi(2) + (y1 - y2).powi(2);
            if d2 <= r2 {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                out.push(((a as u64) << 32) | b as u64);
            }
        };
        for cell in cell_range {
            let (cy, cx) = (cell / side, cell % side);
            let members = bucket(cell);
            if members.is_empty() {
                continue;
            }
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    probe(u, v, &mut out);
                }
            }
            // Forward half-plane: (+1,0), (−1,+1), (0,+1), (+1,+1).
            for (dx, dy) in [(1i64, 0i64), (-1, 1), (0, 1), (1, 1)] {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= side as i64 || ny >= side as i64 {
                    continue;
                }
                let neighbors = bucket(ny as usize * side + nx as usize);
                for &u in members {
                    for &v in neighbors {
                        probe(u, v, &mut out);
                    }
                }
            }
        }
        out
    });
    for chunk in scan {
        b.extend_packed(&chunk)?;
        exec.recycle_u64(chunk);
    }
    exec.recycle_u32(grid_off);
    exec.recycle_u32(payload);
    Ok(b.build_with(exec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).unwrap().num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).unwrap().num_edges(), 45);
        assert_eq!(gnp(0, 0.5, 1).unwrap().num_vertices(), 0);
        assert_eq!(gnp(1, 0.5, 1).unwrap().num_edges(), 0);
    }

    #[test]
    fn gnp_rejects_bad_p() {
        assert!(gnp(10, -0.1, 1).is_err());
        assert!(gnp(10, 1.5, 1).is_err());
        assert!(gnp(10, f64::NAN, 1).is_err());
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, 99).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "edges {got} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnp_deterministic() {
        assert_eq!(gnp(50, 0.2, 3).unwrap(), gnp(50, 0.2, 3).unwrap());
        assert_ne!(gnp(50, 0.2, 3).unwrap(), gnp(50, 0.2, 4).unwrap());
    }

    #[test]
    fn gnm_exact_count() {
        for &m in &[0usize, 1, 10, 44, 45] {
            let g = gnm(10, m, 5).unwrap();
            assert_eq!(g.num_edges(), m);
        }
        assert!(gnm(10, 46, 5).is_err());
    }

    #[test]
    fn gnm_dense_path_uses_complement() {
        let g = gnm(20, 180, 2).unwrap(); // max is 190, complement path
        assert_eq!(g.num_edges(), 180);
    }

    #[test]
    fn bipartite_is_bipartite() {
        let g = bipartite_gnp(20, 30, 0.3, 8).unwrap();
        assert_eq!(g.num_vertices(), 50);
        for e in g.edges() {
            assert!(e.u() < 20 && e.v() >= 20, "edge {:?} crosses sides", e);
        }
    }

    #[test]
    fn chung_lu_zero_weights_empty() {
        let g = chung_lu(&[0.0; 10], 1).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn chung_lu_rejects_negative() {
        assert!(chung_lu(&[1.0, -1.0], 1).is_err());
        assert!(chung_lu(&[f64::INFINITY], 1).is_err());
    }

    #[test]
    fn power_law_degrees_skewed() {
        let g = power_law(500, 2.5, 8.0, 42).unwrap();
        // Earlier vertices get higher expected degree.
        let head: usize = (0..10).map(|v| g.degree(v)).sum();
        let tail: usize = (490..500).map(|v| g.degree(v)).sum();
        assert!(head > tail, "head degree {head} should exceed tail {tail}");
        assert!(g.max_degree() > (2.0 * g.avg_degree()) as usize);
    }

    #[test]
    fn power_law_rejects_bad_params() {
        assert!(power_law(10, 1.0, 4.0, 1).is_err());
        assert!(power_law(10, 2.5, -1.0, 1).is_err());
    }

    #[test]
    fn structured_graphs() {
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(path(6).num_edges(), 5);
        assert_eq!(cycle(6).num_edges(), 6);
        assert_eq!(cycle(2).num_edges(), 1); // degrades to path
        assert_eq!(star(6).num_edges(), 5);
        assert_eq!(star(6).degree(0), 5);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(complete_bipartite(3, 4).num_edges(), 12);
        assert_eq!(disjoint_edges(5).num_edges(), 5);
        assert_eq!(disjoint_edges(5).max_degree(), 1);
    }

    #[test]
    fn planted_matching_holds_perfect_matching() {
        let g = planted_matching(200, 4.0, 9).unwrap();
        assert_eq!(g.num_vertices(), 200);
        for i in 0..100u32 {
            assert!(g.has_edge(2 * i, 2 * i + 1), "planted edge {i} missing");
        }
        // Noise roughly doubles the planted edge count at avg degree 4.
        assert!(g.num_edges() > 200, "noise edges present");
        assert_eq!(
            planted_matching(200, 4.0, 9).unwrap(),
            g,
            "deterministic in seed"
        );
        assert!(planted_matching(10, -1.0, 0).is_err());
        assert_eq!(planted_matching(0, 4.0, 0).unwrap().num_vertices(), 0);
        assert_eq!(planted_matching(1, 4.0, 0).unwrap().num_edges(), 0);
    }

    #[test]
    fn geometric_tiny_radius_grid_stays_small() {
        // The flat grid is capped near √n cells per side; a tiny radius
        // must neither allocate a huge table nor miss edges.
        let g = random_geometric(64, 1e-6, 3).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn barabasi_albert_structure() {
        let g = barabasi_albert(300, 3, 1).unwrap();
        assert_eq!(g.num_vertices(), 300);
        // Each of the 296 non-seed vertices adds exactly 3 edges (distinct
        // targets, no duplicates possible for a fresh vertex).
        assert_eq!(g.num_edges(), 6 + 296 * 3);
        // Preferential attachment concentrates degree on early vertices.
        let early: usize = (0..10).map(|v| g.degree(v)).sum();
        let late: usize = (290..300).map(|v| g.degree(v)).sum();
        assert!(early > 2 * late, "early {early} vs late {late}");
        assert!(g.max_degree() >= 3);
    }

    #[test]
    fn barabasi_albert_rejects_bad_params() {
        assert!(barabasi_albert(10, 0, 1).is_err());
        assert!(barabasi_albert(10, 10, 1).is_err());
    }

    #[test]
    fn watts_strogatz_no_rewiring_is_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 1).unwrap();
        assert_eq!(g.num_edges(), 20 * 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4, "ring lattice is 4-regular");
        }
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && !g.has_edge(0, 3));
    }

    #[test]
    fn watts_strogatz_rewiring_preserves_edge_budget() {
        let g = watts_strogatz(100, 6, 0.3, 2).unwrap();
        // Rewiring can only merge into existing edges, never add.
        assert!(g.num_edges() <= 300);
        assert!(g.num_edges() > 250, "most edges survive dedup");
    }

    #[test]
    fn watts_strogatz_rejects_bad_params() {
        assert!(watts_strogatz(10, 3, 0.1, 1).is_err(), "odd k");
        assert!(watts_strogatz(10, 10, 0.1, 1).is_err(), "k >= n");
        assert!(watts_strogatz(10, 4, 1.5, 1).is_err(), "beta > 1");
    }

    #[test]
    fn sbm_block_structure() {
        let g = stochastic_block_model(&[50, 50], 0.3, 0.01, 3).unwrap();
        assert_eq!(g.num_vertices(), 100);
        let intra = g
            .edges()
            .iter()
            .filter(|e| (e.u() < 50) == (e.v() < 50))
            .count();
        let inter = g.num_edges() - intra;
        assert!(intra > 5 * inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn sbm_degenerate_cases() {
        let g = stochastic_block_model(&[10], 1.0, 0.0, 1).unwrap();
        assert_eq!(g.num_edges(), 45, "single block at p=1 is complete");
        let g = stochastic_block_model(&[], 0.5, 0.5, 1).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert!(stochastic_block_model(&[5], 2.0, 0.0, 1).is_err());
    }

    #[test]
    fn geometric_radius_extremes() {
        let g = random_geometric(50, 0.0, 1).unwrap();
        assert_eq!(g.num_edges(), 0);
        let g = random_geometric(50, 1.5, 1).unwrap();
        assert_eq!(g.num_edges(), 50 * 49 / 2, "radius covers the whole square");
        assert!(random_geometric(50, -0.1, 1).is_err());
    }

    #[test]
    fn geometric_matches_brute_force() {
        // The grid-bucket construction must agree with the O(n²) check.
        let n = 120;
        let r = 0.15;
        let g = random_geometric(n, r, 7).unwrap();
        // Recompute points with the same RNG stream.
        let mut rng = SmallRng::seed_from_u64(7);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut expect = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                let d2 = (pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2);
                if d2 <= r * r {
                    expect += 1;
                    assert!(g.has_edge(u as u32, v as u32), "missing edge {u}-{v}");
                }
            }
        }
        assert_eq!(g.num_edges(), expect);
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The executors every thread-count-invariance test compares.
    fn executors() -> [ExecutorConfig; 3] {
        [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(4),
        ]
    }

    #[test]
    fn gnp_multi_chunk_thread_invariant() {
        // n > GNP_ROW_CHUNK forces multiple sampling chunks.
        let n = GNP_ROW_CHUNK + 5000;
        let [seq, t2, t4] = executors();
        let a = gnp_with(n, 4.0 / n as f64, 9, &seq).unwrap();
        assert!(a.num_edges() > 0);
        assert_eq!(a, gnp_with(n, 4.0 / n as f64, 9, &t2).unwrap());
        assert_eq!(a, gnp_with(n, 4.0 / n as f64, 9, &t4).unwrap());
    }

    #[test]
    fn gnp_single_chunk_matches_legacy_stream() {
        // The pinned contract: one chunk ⇒ the historical sequential
        // stream, reproduced here directly.
        let (n, p, seed) = (500, 0.02, 0xC0FFEE);
        let g = gnp(n, p, seed).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let log_q = (1.0 - p).ln();
        let mut legacy = GraphBuilder::new(n);
        for row in 0..(n - 1) as u32 {
            let mut col = row as i64;
            loop {
                let r: f64 = rng.gen::<f64>();
                let skip = ((1.0 - r).ln() / log_q).floor() as i64;
                col += 1 + skip.max(0);
                if col >= n as i64 {
                    break;
                }
                legacy.add_edge(row, col as u32).unwrap();
            }
        }
        assert_eq!(g, legacy.build());
    }

    #[test]
    fn pair_index_decode_is_exact() {
        // Exhaustive inverse check at small n: the k-th canonical pair in
        // row-major order decodes back from k, in order.
        for n in [2u64, 3, 7, 100] {
            let mut k = 0u64;
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    assert_eq!(pair_from_index(n, k), (u, v), "n={n} k={k}");
                    k += 1;
                }
            }
            assert_eq!(k, n * (n - 1) / 2);
        }
        // Spot-check the float seed + integer correction at scale-tier
        // sizes, including both row boundaries.
        for n in [1u64 << 20, (1 << 24) + 17] {
            let total = n * (n - 1) / 2;
            for k in [0, 1, n - 2, n - 1, n, total / 2, total - 2, total - 1] {
                let (u, v) = pair_from_index(n, k);
                assert!(u < v && (v as u64) < n);
                let back = pair_row_offset(n, u as u64) + (v as u64 - u as u64 - 1);
                assert_eq!(back, k, "n={n} k={k} decoded ({u},{v})");
            }
        }
    }

    #[test]
    fn gnm_multi_chunk_exact_count_and_thread_invariant() {
        // m > GNM_CHUNK forces multiple quota chunks (plus the top-up).
        let n = 200_000;
        let m = GNM_CHUNK + 20_000;
        let [seq, t2, t4] = executors();
        let a = gnm_with(n, m, 11, &seq).unwrap();
        assert_eq!(a.num_edges(), m, "quota + top-up must land exactly on m");
        assert_eq!(a, gnm_with(n, m, 11, &t2).unwrap());
        assert_eq!(a, gnm_with(n, m, 11, &t4).unwrap());
    }

    #[test]
    fn bipartite_skip_sampling_thread_invariant_and_bipartite() {
        // pairs > BIP_DENSE_MAX_PAIRS with > 1 row chunk.
        let (l, r) = (
            BIP_ROW_CHUNK * 2,
            (BIP_DENSE_MAX_PAIRS / BIP_ROW_CHUNK) / 2 + 7,
        );
        assert!(l * r > BIP_DENSE_MAX_PAIRS);
        let p = 4.0 / r as f64;
        let [seq, t2, t4] = executors();
        let a = bipartite_gnp_with(l, r, p, 3, &seq).unwrap();
        assert!(a.num_edges() > 0);
        for e in a.edges() {
            assert!(e.u() < l as u32 && e.v() >= l as u32, "{e:?} crosses sides");
        }
        assert_eq!(a, bipartite_gnp_with(l, r, p, 3, &t2).unwrap());
        assert_eq!(a, bipartite_gnp_with(l, r, p, 3, &t4).unwrap());
    }

    #[test]
    fn barabasi_albert_batched_structure_and_thread_invariance() {
        // n > BA_EXACT_MAX takes the batched-window path.
        let n = BA_EXACT_MAX + 3000;
        let [seq, t2, t4] = executors();
        let a = barabasi_albert_with(n, 3, 5, &seq).unwrap();
        // Every arrival still contributes exactly m_attach distinct edges.
        assert_eq!(a.num_edges(), 6 + (n - 4) * 3);
        let early: usize = (0..10).map(|v| a.degree(v)).sum();
        let late: usize = ((n - 10) as u32..n as u32).map(|v| a.degree(v)).sum();
        assert!(
            early > 2 * late,
            "preferential attachment survives batching"
        );
        assert_eq!(a, barabasi_albert_with(n, 3, 5, &t2).unwrap());
        assert_eq!(a, barabasi_albert_with(n, 3, 5, &t4).unwrap());
    }

    #[test]
    fn geometric_multi_chunk_thread_invariant() {
        let n = GEO_POINT_CHUNK * 2 + 123;
        let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let [seq, t2, t4] = executors();
        let a = random_geometric_with(n, r, 7, &seq).unwrap();
        assert!(a.num_edges() > 0);
        assert_eq!(a, random_geometric_with(n, r, 7, &t2).unwrap());
        assert_eq!(a, random_geometric_with(n, r, 7, &t4).unwrap());
    }

    #[test]
    fn planted_matching_with_thread_invariant() {
        let n = GNP_ROW_CHUNK * 2;
        let [seq, t2, t4] = executors();
        let a = planted_matching_with(n, 2.0, 13, &seq).unwrap();
        for i in 0..(n / 2) as u32 {
            assert!(a.has_edge(2 * i, 2 * i + 1));
        }
        assert_eq!(a, planted_matching_with(n, 2.0, 13, &t2).unwrap());
        assert_eq!(a, planted_matching_with(n, 2.0, 13, &t4).unwrap());
    }

    #[test]
    fn disjoint_union_copies() {
        let g = cycle(5);
        let u = disjoint_union(&g, 3);
        assert_eq!(u.num_vertices(), 15);
        assert_eq!(u.num_edges(), 15);
        let (_, k) = u.connected_components();
        assert_eq!(k, 3);
    }
}

//! `(1+ε)`-approximate maximum matching via short augmenting paths
//! (paper, Corollary 1.3).
//!
//! The corollary applies McGregor's technique \[McG05\] on top of the
//! Theorem 1.2 matching: repeatedly eliminate augmenting paths of bounded
//! length. The guarantee rests on the folklore lemma both rely on: *a
//! matching admitting no augmenting path of fewer than `2/ε + 1` edges is
//! a `(1+ε)`-approximation of the maximum matching*.
//!
//! **Substitution note (recorded in DESIGN.md):** McGregor's randomized
//! layered search is replaced by deterministic passes of depth-bounded
//! alternating DFS that flip a maximal set of vertex-disjoint short
//! augmenting paths per pass. On bipartite graphs this finds every short
//! augmenting path (no odd cycles); on general graphs it may miss paths
//! through blossoms, so the `(1+ε)` figure is *measured* against the exact
//! optimum in experiment E6 rather than assumed. The paper's round bound
//! for this stage is `O(log log n) · (1/ε)^{O(1/ε)}`; the simulation
//! reports passes, each of which corresponds to one `O(log log n)`-round
//! matching-extraction stage of the McGregor reduction.

use crate::epsilon::Epsilon;
use crate::error::CoreError;
use crate::matching::integral::{integral_matching, IntegralMatchingConfig};
use mmvc_graph::matching::Matching;
use mmvc_graph::{Graph, VertexId};
use mmvc_substrate::ExecutorConfig;

/// Configuration for [`one_plus_eps_matching`].
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentConfig {
    /// Target approximation parameter.
    pub eps: Epsilon,
    /// Seed for the initial Theorem 1.2 matching.
    pub seed: u64,
    /// Upper bound on augmentation passes (defaults to a generous
    /// `8·(1/ε)` when `None`; the process usually converges much sooner).
    pub max_passes: Option<usize>,
    /// How the initial stage's scans execute (results are identical for
    /// any executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

impl AugmentConfig {
    /// Default configuration (threaded executor).
    pub fn new(eps: Epsilon, seed: u64) -> Self {
        AugmentConfig {
            eps,
            seed,
            max_passes: None,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Output of [`one_plus_eps_matching`].
#[derive(Debug, Clone)]
pub struct AugmentOutcome {
    /// The final matching.
    pub matching: Matching,
    /// Augmentation passes executed after the initial `(2+ε)` stage.
    pub passes: usize,
    /// Total augmenting paths flipped.
    pub augmentations: usize,
    /// MPC rounds consumed by the initial Theorem 1.2 stage.
    pub initial_rounds: usize,
    /// The maximum augmenting-path length eliminated, `2·ceil(1/ε) − 1`
    /// edges.
    pub path_limit: usize,
}

/// Computes a `(1+ε)`-approximate maximum matching (paper, Corollary 1.3):
/// the Theorem 1.2 matching followed by elimination of augmenting paths of
/// fewer than `2/ε + 1` edges.
///
/// # Errors
///
/// Propagates [`CoreError`] from the initial matching stage.
///
/// # Examples
///
/// ```
/// use mmvc_core::matching::{one_plus_eps_matching, AugmentConfig};
/// use mmvc_core::Epsilon;
/// use mmvc_graph::generators;
///
/// let g = generators::bipartite_gnp(50, 50, 0.1, 1)?;
/// let out = one_plus_eps_matching(&g, &AugmentConfig::new(Epsilon::new(0.1)?, 2))?;
/// let opt = mmvc_graph::matching::hopcroft_karp(&g)?.len();
/// assert!((out.matching.len() as f64) * 1.1 >= opt as f64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn one_plus_eps_matching(
    g: &Graph,
    config: &AugmentConfig,
) -> Result<AugmentOutcome, CoreError> {
    let mut initial_cfg = IntegralMatchingConfig::new(config.eps, config.seed);
    initial_cfg.sim.executor = config.executor.clone();
    let initial = integral_matching(g, &initial_cfg)?;
    let mut matching = initial.matching;

    // No augmenting path of length < 2k+1 where k = ceil(1/ε) implies a
    // (1 + 1/k) <= (1+ε) approximation.
    let k = (1.0 / config.eps.get()).ceil() as usize;
    let path_limit = 2 * k - 1;
    let max_passes = config.max_passes.unwrap_or(8 * k);

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

    Ok(AugmentOutcome {
        matching,
        passes,
        augmentations,
        initial_rounds: initial.total_rounds,
        path_limit,
    })
}

/// Flips a maximal set of vertex-disjoint augmenting paths of at most
/// `limit` edges; returns how many were flipped.
///
/// Exposed for tests and for callers that maintain their own matching.
pub fn augmentation_pass(g: &Graph, matching: &mut Matching, limit: usize) -> usize {
    let n = g.num_vertices();
    // `used`: vertices already consumed by a flipped path this pass.
    let mut used = vec![false; n];
    let mut flipped = 0usize;

    let free: Vec<VertexId> = (0..n as u32).filter(|&v| !matching.covers(v)).collect();
    for root in free {
        if used[root as usize] || matching.covers(root) {
            continue;
        }
        // `visited` is per-DFS to keep the search linear.
        let mut visited = vec![false; n];
        let mut path = Vec::new();
        if dfs(g, matching, &used, &mut visited, &mut path, root, limit) {
            // `path` is v0, v1, ..., v_{2k+1} alternating free/matched.
            matching.augment_along(&path);
            for &v in &path {
                used[v as usize] = true;
            }
            flipped += 1;
        }
    }
    flipped
}

/// Alternating DFS: find an augmenting path of at most `limit` edges
/// starting at free vertex `v`. `path` collects vertices; returns success.
fn dfs(
    g: &Graph,
    matching: &Matching,
    used: &[bool],
    visited: &mut [bool],
    path: &mut Vec<VertexId>,
    v: VertexId,
    edges_left: usize,
) -> bool {
    visited[v as usize] = true;
    path.push(v);
    for &u in g.neighbors(v) {
        if visited[u as usize] || used[u as usize] {
            continue;
        }
        match matching.mate(u) {
            None => {
                // Free neighbor: augmenting path found.
                path.push(u);
                return true;
            }
            Some(w) => {
                if edges_left >= 3 && !visited[w as usize] && !used[w as usize] {
                    visited[u as usize] = true;
                    path.push(u);
                    if dfs(g, matching, used, visited, path, w, edges_left - 2) {
                        return true;
                    }
                    path.pop();
                }
            }
        }
    }
    path.pop();
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::{generators, matching as gm};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn augmentation_pass_fixes_trivial_gap() {
        // Path 0-1-2-3 with middle edge matched: one augmenting path of
        // length 3 yields the perfect matching.
        let g = generators::path(4);
        let mut m = Matching::new(&g, vec![(1, 2)]).unwrap();
        let flipped = augmentation_pass(&g, &mut m, 3);
        assert_eq!(flipped, 1);
        assert_eq!(m.len(), 2);
        assert!(m.covers(0) && m.covers(3));
    }

    #[test]
    fn limit_one_only_matches_free_edges() {
        let g = generators::path(4);
        let mut m = Matching::new(&g, vec![(1, 2)]).unwrap();
        // Limit 1: no length-3 path allowed; nothing to flip (edges {0,1}
        // and {2,3} have a matched endpoint).
        assert_eq!(augmentation_pass(&g, &mut m, 1), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reaches_optimum_on_bipartite() {
        for seed in 0..6u64 {
            let g = generators::bipartite_gnp(40, 40, 0.08, seed).unwrap();
            let out = one_plus_eps_matching(&g, &AugmentConfig::new(eps(0.1), seed)).unwrap();
            let opt = gm::hopcroft_karp(&g).unwrap().len();
            assert!(
                (out.matching.len() as f64) * 1.1 + 1e-9 >= opt as f64,
                "seed {seed}: {} vs opt {opt}",
                out.matching.len()
            );
        }
    }

    #[test]
    fn close_to_optimum_on_general_graphs() {
        for seed in 0..6u64 {
            let g = generators::gnp(100, 0.06, seed).unwrap();
            let out = one_plus_eps_matching(&g, &AugmentConfig::new(eps(0.1), seed)).unwrap();
            let opt = gm::blossom(&g).len();
            assert!(
                (out.matching.len() as f64) * 1.1 + 1e-9 >= opt as f64,
                "seed {seed}: {} vs opt {opt}",
                out.matching.len()
            );
        }
    }

    #[test]
    fn output_is_valid_matching() {
        let g = generators::gnp(120, 0.08, 3).unwrap();
        let out = one_plus_eps_matching(&g, &AugmentConfig::new(eps(0.1), 3)).unwrap();
        for e in out.matching.edges() {
            assert!(g.has_edge(e.u(), e.v()));
        }
        assert!(
            out.matching.is_maximal(&g),
            "a 1+ε matching is in particular maximal"
        );
    }

    #[test]
    fn converges_and_reports_passes() {
        let g = generators::cycle(50);
        let out = one_plus_eps_matching(&g, &AugmentConfig::new(eps(0.1), 1)).unwrap();
        assert!(out.passes >= 1);
        assert_eq!(out.path_limit, 2 * 10 - 1);
        // C_50 has maximum matching 25.
        assert!(out.matching.len() >= 23);
    }

    #[test]
    fn pass_cap_respected() {
        let g = generators::gnp(80, 0.1, 5).unwrap();
        let mut cfg = AugmentConfig::new(eps(0.1), 5);
        cfg.max_passes = Some(1);
        let out = one_plus_eps_matching(&g, &cfg).unwrap();
        assert!(out.passes <= 1);
    }
}

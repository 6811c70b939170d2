//! Named, seeded workload scenarios — the registry behind `mmvc run`.
//!
//! Every algorithm in the workspace can be pointed at every scenario by
//! name: the run driver (`mmvc_core::run`), the CLI (`mmvc run`, `mmvc
//! list`), the serving daemon and the experiment registry all resolve
//! workloads through this table. Each entry names one graph
//! family at a scenario-chosen default size; `build_with` overrides the
//! size for smoke tests and sweeps.
//!
//! All scenarios are deterministic in `(n, seed)`. Structured families
//! (grid, stars, cliques) ignore the seed; that is part of the contract,
//! not an accident — the same name and size always mean the same graph.
//!
//! # Tiers
//!
//! The registry has two tiers. The **base** tier (14 families, `n` up to
//! 4096 by default) is what the smoke matrices and the experiment
//! binaries exercise. The **scale** tier (`scale-*` names,
//! default `n` up to 2²¹) drives the million-vertex workloads of
//! `bench_scale`: the same generator families, parallel construction
//! through [`Scenario::build_with_exec`], thread-count-invariant output by
//! the generators' determinism contract. Scale scenarios are full
//! registry citizens — `mmvc run greedy-mis --scenario scale-gnp-1m`
//! works — but the serving daemon admits them only when its `--max-n` cap
//! says so.

use crate::error::GraphError;
use crate::generators;
use crate::graph::Graph;
use mmvc_substrate::ExecutorConfig;

/// One named workload family.
///
/// # Examples
///
/// ```
/// use mmvc_graph::scenarios;
///
/// let sc = scenarios::get("gnp-sparse").expect("registered");
/// let g = sc.build_with(256, 7)?;
/// assert_eq!(g.num_vertices(), 256);
/// # Ok::<(), mmvc_graph::GraphError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Registry key, kebab-case (`"gnp-sparse"`, `"scale-gnp-1m"`, …).
    pub name: &'static str,
    /// One-line description shown by `mmvc list`.
    pub description: &'static str,
    /// Default vertex count used when no size override is given.
    pub default_n: usize,
    /// Whether this entry belongs to the million-vertex scale tier
    /// (driven by `bench_scale`).
    pub scale: bool,
    build: fn(usize, u64, &ExecutorConfig) -> Result<Graph, GraphError>,
}

impl Scenario {
    /// Builds the scenario at its default size.
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's [`GraphError`] (cannot occur
    /// for registered entries at their default size).
    pub fn build(&self, seed: u64) -> Result<Graph, GraphError> {
        self.build_with(self.default_n, seed)
    }

    /// Builds the scenario at an explicit target size.
    ///
    /// Families with structural size constraints land on the nearest
    /// feasible size (e.g. `grid` uses `⌊√n⌋²` vertices), so
    /// `num_vertices()` can differ slightly from `n`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's [`GraphError`] (degenerate
    /// sizes are clamped before the generator is called).
    pub fn build_with(&self, n: usize, seed: u64) -> Result<Graph, GraphError> {
        self.build_with_exec(n, seed, &ExecutorConfig::default())
    }

    /// Builds the scenario at an explicit size on an explicit executor.
    ///
    /// The executor changes construction wall time only, never the graph:
    /// generators and the CSR builder are thread-count-invariant by
    /// construction (`bench_scale` verifies the byte identity on every
    /// scale scenario).
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's [`GraphError`].
    pub fn build_with_exec(
        &self,
        n: usize,
        seed: u64,
        exec: &ExecutorConfig,
    ) -> Result<Graph, GraphError> {
        let _span = exec
            .telemetry()
            .span_tagged("scenario.generate", self.name)
            .with_arg("n", n as u64)
            .with_arg("seed", seed);
        (self.build)(n, seed, exec)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("default_n", &self.default_n)
            .field("scale", &self.scale)
            .finish()
    }
}

fn gnp_avg_degree(
    n: usize,
    deg: f64,
    seed: u64,
    exec: &ExecutorConfig,
) -> Result<Graph, GraphError> {
    let p = if n >= 2 {
        (deg / (n - 1) as f64).min(1.0)
    } else {
        0.0
    };
    generators::gnp_with(n, p, seed, exec)
}

fn gnp_sparse(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    gnp_avg_degree(n, 8.0, seed, exec)
}

fn gnp_mid(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    gnp_avg_degree(n, 64.0, seed, exec)
}

fn gnp_dense(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    generators::gnp_with(n, 0.125, seed, exec)
}

fn gnm(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    generators::gnm_with(n, (4 * n).min(max_m), seed, exec)
}

fn bipartite(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let left = n / 2;
    let right = n - left;
    let p = if n >= 2 {
        (16.0 / n as f64).min(1.0)
    } else {
        0.0
    };
    generators::bipartite_gnp_with(left, right, p, seed, exec)
}

fn power_law(n: usize, seed: u64, _exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    generators::power_law(n, 2.5, 8.0, seed)
}

fn geometric(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    // Radius giving expected average degree ~12: π r² n ≈ 12.
    let r = (12.0 / (std::f64::consts::PI * n.max(1) as f64)).sqrt();
    generators::random_geometric_with(n, r.min(1.5), seed, exec)
}

fn grid(n: usize, _seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let side = (n as f64).sqrt() as usize;
    Ok(generators::grid_with(side, side, exec))
}

fn ring_lattice(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    // Watts–Strogatz needs even k < n; degrade to the plain ring (and
    // below that, a path) at tiny sizes.
    if n <= 3 {
        return Ok(generators::cycle(n));
    }
    let k = if n > 6 { 6 } else { 2 };
    generators::watts_strogatz_with(n, k, 0.1, seed, exec)
}

fn planted_matching(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    generators::planted_matching_with(n, 4.0, seed, exec)
}

fn star_stress(n: usize, _seed: u64, _exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let star = 64.min(n.max(1));
    let copies = (n / star).max(1);
    Ok(generators::disjoint_union(&generators::star(star), copies))
}

fn clique_stress(n: usize, _seed: u64, _exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let clique = 32.min(n.max(1));
    let copies = (n / clique).max(1);
    Ok(generators::disjoint_union(
        &generators::complete(clique),
        copies,
    ))
}

fn barabasi_albert(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    if n < 2 {
        return Ok(Graph::empty(n));
    }
    generators::barabasi_albert_with(n, 4.min(n - 1), seed, exec)
}

fn barabasi_albert_8(n: usize, seed: u64, exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    if n < 2 {
        return Ok(Graph::empty(n));
    }
    generators::barabasi_albert_with(n, 8.min(n - 1), seed, exec)
}

fn sbm(n: usize, seed: u64, _exec: &ExecutorConfig) -> Result<Graph, GraphError> {
    let quarter = n / 4;
    let sizes = [quarter, quarter, quarter, n - 3 * quarter];
    let p_in = if n >= 2 {
        (16.0 / n as f64).min(1.0)
    } else {
        0.0
    };
    let p_out = if n >= 2 {
        (1.0 / n as f64).min(1.0)
    } else {
        0.0
    };
    generators::stochastic_block_model(&sizes, p_in, p_out, seed)
}

/// The scenario registry, in stable display order: the base tier first,
/// then the scale tier.
const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "gnp-sparse",
        description: "Erdős–Rényi G(n, p) at average degree 8",
        default_n: 4096,
        scale: false,
        build: gnp_sparse,
    },
    Scenario {
        name: "gnp-mid",
        description: "Erdős–Rényi G(n, p) at average degree 64 (the E1 sweep family)",
        default_n: 4096,
        scale: false,
        build: gnp_mid,
    },
    Scenario {
        name: "gnp-dense",
        description: "Erdős–Rényi G(n, 0.125) — degree grows with n (the E4 stress family)",
        default_n: 2048,
        scale: false,
        build: gnp_dense,
    },
    Scenario {
        name: "gnm",
        description: "Erdős–Rényi G(n, m) with exactly m = 4n edges",
        default_n: 4096,
        scale: false,
        build: gnm,
    },
    Scenario {
        name: "bipartite",
        description: "random bipartite G(n/2, n/2, p), average degree ~8 (ad allocation)",
        default_n: 4096,
        scale: false,
        build: bipartite,
    },
    Scenario {
        name: "power-law",
        description: "Chung–Lu power law, β = 2.5, average degree 8 (social networks)",
        default_n: 4096,
        scale: false,
        build: power_law,
    },
    Scenario {
        name: "geometric",
        description: "random geometric graph in the unit square, average degree ~12 (sensor nets)",
        default_n: 4096,
        scale: false,
        build: geometric,
    },
    Scenario {
        name: "grid",
        description: "⌊√n⌋ × ⌊√n⌋ grid lattice (seed ignored)",
        default_n: 4096,
        scale: false,
        build: grid,
    },
    Scenario {
        name: "ring-lattice",
        description: "Watts–Strogatz ring lattice, k = 6, 10% rewiring (small world)",
        default_n: 4096,
        scale: false,
        build: ring_lattice,
    },
    Scenario {
        name: "planted-matching",
        description: "perfect matching on n/2 pairs hidden under degree-4 G(n,p) noise",
        default_n: 4096,
        scale: false,
        build: planted_matching,
    },
    Scenario {
        name: "star-stress",
        description: "disjoint union of 64-vertex stars (hub stress; seed ignored)",
        default_n: 4096,
        scale: false,
        build: star_stress,
    },
    Scenario {
        name: "clique-stress",
        description: "disjoint union of 32-vertex cliques (dense-block stress; seed ignored)",
        default_n: 2048,
        scale: false,
        build: clique_stress,
    },
    Scenario {
        name: "barabasi-albert",
        description: "Barabási–Albert preferential attachment, 4 edges per arrival",
        default_n: 4096,
        scale: false,
        build: barabasi_albert,
    },
    Scenario {
        name: "sbm",
        description: "stochastic block model, 4 equal communities, ~16:1 intra/inter degree",
        default_n: 2048,
        scale: false,
        build: sbm,
    },
    // ---- scale tier ----
    Scenario {
        name: "scale-gnp-1m",
        description: "G(n, p) at average degree 8, n = 2^20 (the bench_scale headline)",
        default_n: 1 << 20,
        scale: true,
        build: gnp_sparse,
    },
    Scenario {
        name: "scale-gnp-2m",
        description: "G(n, p) at average degree 8, n = 2^21",
        default_n: 1 << 21,
        scale: true,
        build: gnp_sparse,
    },
    Scenario {
        name: "scale-gnm-1m",
        description: "G(n, m) with m = 4n, n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: gnm,
    },
    Scenario {
        name: "scale-grid-1m",
        description: "1024 × 1024 grid lattice (seed ignored), n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: grid,
    },
    Scenario {
        name: "scale-ba-1m",
        description: "Barabási–Albert, 8 edges per arrival (batched windows), n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: barabasi_albert_8,
    },
    Scenario {
        name: "scale-bipartite-1m",
        description: "random bipartite G(n/2, n/2, p), average degree ~8, n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: bipartite,
    },
    Scenario {
        name: "scale-geometric-1m",
        description: "random geometric graph, average degree ~12, n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: geometric,
    },
    Scenario {
        name: "scale-planted-1m",
        description: "planted perfect matching under degree-4 noise, n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: planted_matching,
    },
    Scenario {
        name: "scale-ring-1m",
        description: "Watts–Strogatz ring lattice, k = 6, 10% rewiring, n = 2^20",
        default_n: 1 << 20,
        scale: true,
        build: ring_lattice,
    },
    Scenario {
        name: "scale-gnp-16m",
        description: "G(n, p) at average degree 8, n = 2^24 (u32-packed CSR headline)",
        default_n: 1 << 24,
        scale: true,
        build: gnp_sparse,
    },
    Scenario {
        name: "scale-gnm-16m",
        description: "G(n, m) with m = 4n, n = 2^24",
        default_n: 1 << 24,
        scale: true,
        build: gnm,
    },
];

/// All registered scenarios, in stable display order (base tier, then
/// scale tier).
pub fn all() -> &'static [Scenario] {
    REGISTRY
}

/// The base tier: every non-`scale-` scenario.
pub fn base() -> impl Iterator<Item = &'static Scenario> {
    REGISTRY.iter().filter(|s| !s.scale)
}

/// The million-vertex scale tier (`scale-*` names) — the `bench_scale`
/// workloads.
pub fn scale_tier() -> impl Iterator<Item = &'static Scenario> {
    REGISTRY.iter().filter(|s| s.scale)
}

/// Looks up a scenario by registry name.
pub fn get(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The registered scenario names, in display order (for usage strings).
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_lookup_works() {
        let names = names();
        assert!(names.len() >= 10, "issue demands >=10 families");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario name");
        for s in all() {
            assert_eq!(get(s.name).unwrap().name, s.name);
            assert!(!s.description.is_empty());
            assert!(s.default_n >= 256, "{} default too small", s.name);
        }
        assert!(get("no-such-scenario").is_none());
    }

    #[test]
    fn tiers_partition_the_registry() {
        assert_eq!(base().count() + scale_tier().count(), all().len());
        assert_eq!(base().count(), 14, "the base tier is frozen at 14");
        assert!(scale_tier().count() >= 8, "scale tier families");
        for s in scale_tier() {
            assert!(s.name.starts_with("scale-"), "{} must be prefixed", s.name);
            assert!(s.default_n >= 1 << 20, "{} below the million tier", s.name);
        }
        for s in base() {
            assert!(!s.name.starts_with("scale-"), "{} wrongly prefixed", s.name);
        }
    }

    #[test]
    fn every_scenario_builds_small_and_default_deterministically() {
        for s in all() {
            let a = s.build_with(96, 7).unwrap_or_else(|e| {
                panic!("{} failed at n=96: {e}", s.name);
            });
            let b = s.build_with(96, 7).unwrap();
            assert_eq!(a, b, "{} not deterministic", s.name);
            assert!(a.num_vertices() > 0, "{} empty at n=96", s.name);
            assert!(a.num_vertices() <= 96, "{} exceeded requested size", s.name);
        }
    }

    #[test]
    fn scale_scenarios_executor_invariant_small() {
        // The cheap version of the bench_scale byte-identity check: every
        // scale family at a size that still exercises the chunked
        // builder paths.
        for s in scale_tier() {
            let a = s
                .build_with_exec(20_000, 3, &ExecutorConfig::sequential())
                .unwrap();
            let b = s
                .build_with_exec(20_000, 3, &ExecutorConfig::with_threads(4))
                .unwrap();
            assert_eq!(a, b, "{} diverged across executors", s.name);
        }
    }

    #[test]
    fn seeded_families_vary_with_seed() {
        for name in [
            "gnp-sparse",
            "gnp-mid",
            "gnp-dense",
            "gnm",
            "bipartite",
            "power-law",
            "geometric",
            "ring-lattice",
            "planted-matching",
            "barabasi-albert",
            "sbm",
        ] {
            let s = get(name).unwrap();
            assert_ne!(
                s.build_with(128, 1).unwrap(),
                s.build_with(128, 2).unwrap(),
                "{name} ignored its seed"
            );
        }
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        for s in all() {
            for n in [0usize, 1, 2, 5] {
                let g = s
                    .build_with(n, 3)
                    .unwrap_or_else(|e| panic!("{} failed at n={n}: {e}", s.name));
                assert!(g.num_vertices() <= n.max(1), "{} at n={n}", s.name);
            }
        }
    }
}

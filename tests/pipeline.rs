//! End-to-end integration tests: full pipelines across all workspace
//! crates, on multiple graph families, checking the paper's guarantees
//! against exact optima.

use mmvc::graph::io;
use mmvc::prelude::*;

fn eps() -> Epsilon {
    Epsilon::new(0.1).expect("valid eps")
}

/// A spread of graph families exercising different degree profiles.
fn test_graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "gnp_sparse",
            generators::gnp(400, 8.0 / 400.0, seed).unwrap(),
        ),
        ("gnp_dense", generators::gnp(250, 0.4, seed).unwrap()),
        (
            "power_law",
            generators::power_law(400, 2.3, 10.0, seed).unwrap(),
        ),
        (
            "bipartite",
            generators::bipartite_gnp(200, 200, 0.05, seed).unwrap(),
        ),
        ("grid", generators::grid(20, 20)),
        (
            "star_forest",
            generators::disjoint_union(&generators::star(40), 10),
        ),
    ]
}

#[test]
fn full_mis_pipeline_all_families() {
    for seed in 0..3u64 {
        for (name, g) in test_graphs(seed) {
            let out = greedy_mpc_mis(&g, &GreedyMisConfig::new(seed)).unwrap();
            assert!(out.mis.is_independent(&g), "{name} seed {seed}");
            assert!(out.mis.is_maximal(&g), "{name} seed {seed}");
            // Memory claim: every round fits in the 8n-word budget.
            assert!(
                out.trace.max_load_words() <= 8 * g.num_vertices().max(8),
                "{name} seed {seed}"
            );
        }
    }
}

#[test]
fn mis_agrees_across_models() {
    // MPC and CONGESTED-CLIQUE variants simulate the same greedy prefix
    // process from the same seed.
    for seed in 0..3u64 {
        let g = generators::gnp(300, 0.2, seed).unwrap();
        let mpc = greedy_mpc_mis(&g, &GreedyMisConfig::new(seed)).unwrap();
        let clique = clique_mis(&g, &CliqueMisConfig::new(seed)).unwrap();
        assert_eq!(mpc.prefix_phases, clique.prefix_phases, "seed {seed}");
        assert!(clique.mis.is_maximal(&g));
    }
}

#[test]
fn full_matching_pipeline_all_families() {
    for (name, g) in test_graphs(7) {
        let out = integral_matching(&g, &IntegralMatchingConfig::new(eps(), 7)).unwrap();
        // Valid matching on g.
        for e in out.matching.edges() {
            assert!(g.has_edge(e.u(), e.v()), "{name}");
        }
        // Valid cover.
        assert!(out.cover.covers(&g), "{name}");
        // 2+eps quality against the exact optimum.
        let opt = matching::blossom(&g).len();
        assert!(
            (2.0 + 0.1) * out.matching.len() as f64 >= opt as f64,
            "{name}: matched {} vs opt {opt}",
            out.matching.len()
        );
        // Duality sandwich: |M| <= opt <= |C|.
        assert!(out.matching.len() <= opt, "{name}");
        assert!(out.cover.len() >= opt, "{name}");
    }
}

#[test]
fn one_plus_eps_beats_two_plus_eps() {
    for seed in 0..3u64 {
        let g = generators::gnp(300, 0.05, seed).unwrap();
        let two = integral_matching(&g, &IntegralMatchingConfig::new(eps(), seed)).unwrap();
        let one = one_plus_eps_matching(&g, &AugmentConfig::new(eps(), seed)).unwrap();
        assert!(one.matching.len() >= two.matching.len(), "seed {seed}");
        let opt = matching::blossom(&g).len();
        assert!(
            1.1 * one.matching.len() as f64 >= opt as f64,
            "seed {seed}: {} vs {opt}",
            one.matching.len()
        );
    }
}

#[test]
fn fractional_pipeline_duality_chain() {
    // W(x) <= |M*| <= VC* <= |C| and x feasible, on every family.
    for (name, g) in test_graphs(11) {
        let out = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), 11)).unwrap();
        assert!(out.fractional.is_feasible(&g), "{name}");
        let opt = matching::blossom(&g).len() as f64;
        assert!(
            out.fractional.weight() <= opt + 1e-6,
            "{name}: weak duality violated"
        );
        assert!(
            out.cover.len() as f64 >= opt - 1e-6,
            "{name}: cover below matching"
        );
    }
}

#[test]
fn rounding_composes_with_simulation() {
    let g = generators::gnp(500, 0.08, 3).unwrap();
    let sim = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), 3)).unwrap();
    let m = round_fractional(&g, &sim.fractional, &sim.heavy_certificate, 9).unwrap();
    for e in m.edges() {
        assert!(g.has_edge(e.u(), e.v()));
        // Rounded edges carry positive fractional weight.
        let idx = g.edges().index_of(e).unwrap();
        assert!(sim.fractional.edge_weight(idx) > 0.0);
    }
}

#[test]
fn weighted_pipeline_on_weighted_families() {
    for seed in 0..3u64 {
        let g = generators::gnp(150, 0.1, seed).unwrap();
        let wg = weighted::WeightedGraph::with_random_weights(g, 1.0, 64.0, seed).unwrap();
        let out = weighted_matching(&wg, &WeightedMatchingConfig::new(eps(), seed)).unwrap();
        // Weight at least the unweighted maximal-matching weight under the
        // minimum edge weight: crude but model-independent sanity.
        let maximal = matching::greedy_maximal_matching(wg.graph());
        assert!(out.total_weight >= maximal.len() as f64 * 1.0 / (2.0 * 1.1) - 1e-9);
    }
}

#[test]
fn filtering_and_luby_baselines_run_everywhere() {
    for (name, g) in test_graphs(13) {
        let f = filtering_maximal_matching(&g, &FilteringConfig::new(13)).unwrap();
        assert!(f.matching.is_maximal(&g), "{name}");
        let l = luby_mis(&g, 13);
        assert!(l.mis.is_maximal(&g), "{name}");
    }
}

#[test]
fn vertex_cover_api_certificate_is_sound() {
    use mmvc::core::vertex_cover::{approx_min_vertex_cover, VertexCoverConfig};
    for (name, g) in test_graphs(17) {
        let out = approx_min_vertex_cover(&g, &VertexCoverConfig::new(eps(), 17)).unwrap();
        assert!(out.cover.covers(&g), "{name}");
        let opt = matching::blossom(&g).len();
        // The certificate upper-bounds the true ratio against |M*|, which
        // itself lower-bounds VC*.
        if opt > 0 {
            let true_ratio_vs_lb = out.cover.len() as f64 / opt as f64;
            assert!(
                true_ratio_vs_lb <= out.certified_ratio + 1e-9,
                "{name}: certificate {} below measured {}",
                out.certified_ratio,
                true_ratio_vs_lb
            );
        }
    }
}

#[test]
fn sublinear_memory_end_to_end() {
    use mmvc::core::matching::MpcMatchingConfig;
    let g = generators::gnp(600, 0.15, 19).unwrap();
    let cfg = MpcMatchingConfig::sublinear(eps(), 19, 4.0);
    let out = mpc_simulation(&g, &cfg).unwrap();
    assert!(out.cover.covers(&g));
    assert!(out.fractional.is_feasible(&g));
    assert!(out.trace.max_load_words() <= (8.0f64 / 4.0 * 600.0).ceil() as usize);
}

#[test]
fn pivot_assignment_composes_with_mis_pipeline() {
    use mmvc::graph::rng::{invert_permutation, random_permutation};
    let g = generators::power_law(300, 2.4, 9.0, 23).unwrap();
    let perm = random_permutation(300, 23);
    let ranks = invert_permutation(&perm);
    let (set, pivot) = mis::greedy_mis_with_pivots(&g, &ranks);
    assert!(set.is_maximal(&g));
    // Complement duality and pivot validity in one sweep.
    assert!(set.to_vertex_cover().covers(&g));
    for v in 0..300u32 {
        let p = pivot[v as usize];
        assert!(set.contains(p) || p == v);
    }
}

#[test]
fn deterministic_end_to_end() {
    let g = generators::power_law(300, 2.5, 8.0, 5).unwrap();
    let a = integral_matching(&g, &IntegralMatchingConfig::new(eps(), 5)).unwrap();
    let b = integral_matching(&g, &IntegralMatchingConfig::new(eps(), 5)).unwrap();
    assert_eq!(a.matching.edges(), b.matching.edges());
    assert_eq!(a.cover.members(), b.cover.members());
    assert_eq!(a.total_rounds, b.total_rounds);
}

#[test]
fn io_roundtrip_through_temp_file() {
    let g = generators::watts_strogatz(100, 6, 0.2, 4).unwrap();
    let path = std::env::temp_dir().join("mmvc_io_roundtrip_test.txt");
    {
        let file = std::fs::File::create(&path).unwrap();
        io::write_edge_list(&g, file).unwrap();
    }
    let back = io::read_edge_list(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(g, back);
}

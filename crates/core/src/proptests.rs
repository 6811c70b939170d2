//! Property-based tests over the algorithm crate: the paper's invariants
//! must hold on *arbitrary* random graphs, not just the fixtures unit
//! tests pick.

use crate::baselines::{luby_maximal_matching, luby_mis};
use crate::epsilon::Epsilon;
use crate::filtering::{filtering_maximal_matching, FilteringConfig};
use crate::matching::{
    augmentation_pass, central_rand, integral_matching, mpc_simulation, random_vertex_partition,
    round_fractional, IntegralMatchingConfig, MpcMatchingConfig,
};
use crate::mis::{greedy_mpc_mis, GreedyMisConfig};
use mmvc_graph::matching::{blossom, greedy_maximal_matching};
use mmvc_graph::{generators, Graph};
use proptest::prelude::*;

fn eps() -> Epsilon {
    Epsilon::new(0.1).expect("valid eps")
}

/// Random test graph: size, density, and seed all arbitrary.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..80, 0.0f64..0.6, any::<u64>())
        .prop_map(|(n, p, seed)| generators::gnp(n, p, seed).expect("valid p"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mpc_mis_always_maximal_independent(g in arb_graph(), seed: u64) {
        let out = greedy_mpc_mis(&g, &GreedyMisConfig::new(seed)).expect("fits budget");
        prop_assert!(out.mis.is_independent(&g));
        prop_assert!(out.mis.is_maximal(&g));
    }

    #[test]
    fn luby_always_maximal_independent(g in arb_graph(), seed: u64) {
        let out = luby_mis(&g, seed);
        prop_assert!(out.mis.is_independent(&g));
        prop_assert!(out.mis.is_maximal(&g));
    }

    #[test]
    fn central_rand_invariants(g in arb_graph(), seed: u64) {
        let out = central_rand(&g, eps(), seed);
        prop_assert!(out.cover.covers(&g));
        prop_assert!(out.fractional.is_feasible(&g));
        // Weak duality: fractional matching weight <= any vertex cover.
        prop_assert!(out.fractional.weight() <= out.cover.len() as f64 + 1e-9);
    }

    #[test]
    fn mpc_simulation_invariants(g in arb_graph(), seed: u64) {
        let out = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), seed))
            .expect("fits budget");
        prop_assert!(out.cover.covers(&g));
        prop_assert!(out.fractional.is_feasible(&g));
        // The heavy certificate is part of the cover and not removed.
        for &v in &out.heavy_certificate {
            prop_assert!(out.cover.contains(v));
            prop_assert!(!out.removed[v as usize]);
        }
    }

    #[test]
    fn rounding_yields_valid_positive_weight_matching(g in arb_graph(), seed: u64) {
        let sim = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), seed))
            .expect("fits budget");
        let m = round_fractional(&g, &sim.fractional, &sim.heavy_certificate, seed ^ 0xFE)
            .expect("valid candidates");
        for e in m.edges() {
            prop_assert!(g.has_edge(e.u(), e.v()));
            let idx = g.edges().index_of(e).expect("edge of g");
            prop_assert!(sim.fractional.edge_weight(idx) > 0.0);
        }
    }

    #[test]
    fn integral_matching_sandwich(g in arb_graph(), seed: u64) {
        let out = integral_matching(&g, &IntegralMatchingConfig::new(eps(), seed))
            .expect("fits budget");
        let opt = blossom(&g).len();
        // |M| <= |M*| <= (2+eps)|M| and the cover sandwiches from above.
        prop_assert!(out.matching.len() <= opt);
        prop_assert!((2.0 + 0.1) * out.matching.len() as f64 + 1e-9 >= opt as f64);
        prop_assert!(out.cover.covers(&g));
        prop_assert!(out.cover.len() >= opt);
    }

    #[test]
    fn filtering_matches_maximality(g in arb_graph(), seed: u64) {
        let out = filtering_maximal_matching(&g, &FilteringConfig::new(seed))
            .expect("fits budget");
        prop_assert!(out.matching.is_maximal(&g));
        prop_assert!(2 * out.matching.len() >= blossom(&g).len());
    }

    #[test]
    fn augmentation_never_shrinks_matching(g in arb_graph(), limit in 1usize..12) {
        let mut m = greedy_maximal_matching(&g);
        let before = m.len();
        let limit = if limit % 2 == 0 { limit + 1 } else { limit };
        augmentation_pass(&g, &mut m, limit);
        prop_assert!(m.len() >= before);
        for e in m.edges() {
            prop_assert!(g.has_edge(e.u(), e.v()));
        }
    }

    #[test]
    fn line_graph_matching_maximal(g in arb_graph(), seed: u64) {
        let out = luby_maximal_matching(&g, seed);
        prop_assert!(out.matching.is_maximal(&g));
    }

    #[test]
    fn trace_loads_respect_budget(g in arb_graph(), seed: u64) {
        let out = mpc_simulation(&g, &MpcMatchingConfig::new(eps(), seed))
            .expect("fits budget");
        let budget = (8.0 * g.num_vertices().max(1) as f64).ceil() as usize;
        prop_assert!(out.trace.max_load_words() <= budget.max(16));
    }

    #[test]
    fn partition_always_exhaustive(n in 0usize..500, m in 1usize..12, seed: u64) {
        let verts: Vec<u32> = (0..n as u32).collect();
        let parts = random_vertex_partition(&verts, m, seed);
        prop_assert_eq!(parts.len(), m);
        prop_assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
    }
}

//! Wall-time of the substrate primitives: graph generation, vertex
//! partitioning, MPC round metering, clique routing, and the round
//! engine's sequential-vs-threaded executors on both substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmvc_core::matching::random_vertex_partition;
use mmvc_core::mis::{clique_mis, greedy_mpc_mis, CliqueMisConfig, GreedyMisConfig};
use mmvc_graph::generators;
use mmvc_substrate::clique::CliqueNetwork;
use mmvc_substrate::mpc::{Cluster, MpcConfig};
use mmvc_substrate::{ExecutorConfig, Substrate};

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for k in [12usize, 14] {
        let n = 1 << k;
        group.bench_with_input(BenchmarkId::new("gnp_deg64", n), &n, |b, &n| {
            b.iter(|| generators::gnp(n, 64.0 / n as f64, 1).expect("valid p"))
        });
        group.bench_with_input(BenchmarkId::new("power_law", n), &n, |b, &n| {
            b.iter(|| generators::power_law(n, 2.5, 16.0, 1).expect("valid params"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mpc_substrate");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let vertices: Vec<u32> = (0..1u32 << 16).collect();
    group.bench_function("partition_64k_into_256", |b| {
        b.iter(|| random_vertex_partition(&vertices, 256, 7))
    });
    group.bench_function("cluster_1000_rounds", |b| {
        b.iter(|| {
            let mut cl = Cluster::new(MpcConfig::new(64, 1 << 20).expect("valid"));
            for _ in 0..1000 {
                cl.round(|r| r.broadcast(100)).expect("within budget");
            }
            cl.rounds()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("clique_substrate");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.bench_function("lenzen_route_4096_msgs", |b| {
        let msgs: Vec<(usize, usize, usize)> =
            (0..4096).map(|i| (i % 512, (i * 7 + 1) % 512, 1)).collect();
        b.iter(|| {
            let mut net = CliqueNetwork::new(512).expect("valid");
            net.lenzen_route(&msgs).expect("feasible")
        })
    });
    group.finish();

    // The round engine: the same seeded MIS run under the sequential and
    // the threaded executor, on both substrates. Outcomes are identical by
    // construction (the engine's determinism contract); only wall-time may
    // differ.
    let mut group = c.benchmark_group("round_engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    group.warm_up_time(std::time::Duration::from_secs(1));
    // Dense enough (Δ ≈ 410 > log² n) that the prefix-phase loop — the
    // executor-parallel per-machine work — genuinely runs.
    let n = 1usize << 13;
    let g = generators::gnp(n, 0.05, 1).expect("valid p");
    for (name, exec) in [
        ("sequential", ExecutorConfig::sequential()),
        ("threaded", ExecutorConfig::threaded()),
    ] {
        group.bench_with_input(BenchmarkId::new("mpc_mis_8k", name), &exec, |b, exec| {
            b.iter(|| {
                let mut cfg = GreedyMisConfig::new(1);
                cfg.executor = exec.clone();
                greedy_mpc_mis(&g, &cfg).expect("fits budget").mis.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("clique_mis_8k", name), &exec, |b, exec| {
            b.iter(|| {
                let mut cfg = CliqueMisConfig::new(1);
                cfg.executor = exec.clone();
                clique_mis(&g, &cfg).expect("feasible routing").mis.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);

//! `serve-mix`: open-loop `POST /run` traffic against an in-process
//! daemon (`workers` = the thread budget, no store, telemetry off
//! unless traced).
//!
//! About 98% of requests repeat the fixed 22-spec pool of
//! `mmvc_loadgen` (hits once the set-up has touched them); about 2%
//! carry a fresh seed and are guaranteed misses, so the hit rate is
//! fixed by the schedule rather than by eviction order.
//!
//! Untraced, the run first measures latency at the fixed rate
//! [`FIXED_RPS`] for half its time (`p50_ms`, a hit; `tail_ms` = p99, a
//! miss), then searches a fixed ladder of offered rates for the highest
//! one whose p99 stays under [`LIMIT_MS`] with no growing backlog
//! (`throughput_per_s`). Traced, it runs the fixed rate once against an untraced daemon and
//! once against a daemon writing trace files, then times the request
//! path's pieces on the workload's own request bytes.

use crate::loadgen::{self, Load, LoadResult, Planned, Probe};
use crate::output::{Metric, Outcome};
use crate::stats::{self, median};
use crate::trace::{self, DaemonTrace, Spans};
use crate::Ctx;
use mmvc_bench::Json;
use mmvc_core::run::{build_workload, run, run_detailed, AlgorithmKind, RunSpec};
use mmvc_graph::rng::hash2;
use mmvc_serve::cache::ReportCache;
use mmvc_serve::http::parse_head;
use mmvc_serve::metrics::{bucket_upper_ms, LATENCY_BUCKETS};
use mmvc_serve::{
    cache_key, canonical_report_body, client, parse_run_body, ServeConfig, Server, ServerHandle,
    MAX_SERVED_N,
};
use mmvc_substrate::{ScratchPool, Telemetry};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the latency phase: about an eighth of the ~40k/s
/// capacity measured on a 2-vCPU host. At half capacity the run-to-run
/// spread of p50 and p99 was about 20%.
pub const FIXED_RPS: f64 = 5000.0;

/// The p99 latency limit of the capacity search.
pub const LIMIT_MS: f64 = 100.0;

/// Capacity ladder: offered rates from `LADDER.0` by a factor of
/// `LADDER.2` up to `LADDER.1`; bisection probes six of its 57 rungs.
const LADDER: (f64, f64, f64) = (8000.0, 128_000.0, 1.05);

/// Shares of the run: the latency phase gets `LATENCY_SHARE` of it, and
/// each probe of the capacity search `PROBE_SHARE` (six probes, plus one
/// repeat per failed rung).
const LATENCY_SHARE: (u32, u32) = (1, 2);
const PROBE_SHARE: (u32, u32) = (1, 18);

/// A probe stops sending once more than one request in this many has
/// been sent late or answered late by more than the limit: the server
/// is far past its capacity, and waiting out the schedule only delays
/// the next probe.
const ABORT_OVER_EVERY: usize = 4;

/// One request in this many is a fresh-seed miss.
const MISS_EVERY: usize = 50;

/// Vertex count of the pool specs.
const POOL_N: usize = 128;

const INFLIGHT_CAP: usize = 64;
const DRAIN: Duration = Duration::from_secs(5);

/// Miss responses kept per connection and checked against an
/// in-process run of the same spec.
const KEEP_MISSES: usize = 20;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests of the traced phase whose bytes the request-path pieces
/// are timed on, and how many calls one span covers.
const MICRO_REQUESTS: usize = 2000;
const MICRO_BATCH: usize = 100;

/// The request body of one spec, in the `mmvc_loadgen` pool's format.
fn body(kind: AlgorithmKind, scenario: &str, seed: u64) -> Vec<u8> {
    format!(
        r#"{{"algorithm": "{}", "scenario": "{scenario}", "n": {POOL_N}, "seed": {seed}}}"#,
        kind.name()
    )
    .into_bytes()
}

/// The fixed spec pool of `mmvc_loadgen`: every algorithm kind over a
/// rotating scenario, two seeds each — 22 specs. Entry `t` is also the
/// template of fresh-seed misses.
fn pool(seed: u64) -> Vec<(AlgorithmKind, &'static str, u64)> {
    let scenarios = [
        "gnp-sparse",
        "power-law",
        "bipartite",
        "geometric",
        "planted-matching",
        "gnm",
    ];
    let mut pool = Vec::new();
    for (i, kind) in AlgorithmKind::ALL.into_iter().enumerate() {
        for j in 0..2usize {
            pool.push((
                kind,
                scenarios[(i + j) % scenarios.len()],
                seed.wrapping_add(j as u64),
            ));
        }
    }
    pool
}

/// The traffic of one phase: the plan plus its request bodies (the pool
/// first, then one fresh body per planned miss) and the expected
/// response per body (`None` for misses).
struct Phase {
    plan: Vec<Planned>,
    bodies: Vec<Vec<u8>>,
    expected: Vec<Option<Vec<u8>>>,
}

/// Distinct fresh seeds for every miss of a process: far above the pool
/// seeds, below 2^62 so they stay valid JSON integers.
struct Fresh(u64);

impl Fresh {
    fn new(seed: u64) -> Fresh {
        Fresh((1 << 60) + ((seed & 0xFFFF_FFFF) << 24))
    }

    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

struct Mix<'a> {
    seed: u64,
    conns: usize,
    pool: &'a [(AlgorithmKind, &'static str, u64)],
    expected: &'a [Vec<u8>],
}

impl Mix<'_> {
    fn phase(&self, salt: u64, rate: f64, duration: Duration, fresh: &mut Fresh) -> Phase {
        let mut bodies: Vec<Vec<u8>> = self
            .pool
            .iter()
            .map(|&(k, s, seed)| body(k, s, seed))
            .collect();
        let mut expected: Vec<Option<Vec<u8>>> = self.expected.iter().cloned().map(Some).collect();
        // Exactly one request in each block of MISS_EVERY is a miss, at a
        // seeded position; misses take the pool's templates in turn, so
        // every seed sends the same mix of miss work.
        let pick_seed = hash2(self.seed, salt);
        let mut misses = 0;
        let plan =
            loadgen::poisson_schedule(hash2(pick_seed, 1), rate, duration, self.conns, |i| {
                let block = (i / MISS_EVERY) as u64;
                if (i % MISS_EVERY) as u64 != hash2(pick_seed, block) % MISS_EVERY as u64 {
                    return (hash2(pick_seed ^ 1, i as u64) % self.pool.len() as u64) as usize;
                }
                let (kind, scenario, _) = self.pool[misses % self.pool.len()];
                misses += 1;
                bodies.push(body(kind, scenario, fresh.next()));
                expected.push(None);
                bodies.len() - 1
            });
        Phase {
            plan,
            bodies,
            expected,
        }
    }
}

/// An in-process daemon on an ephemeral port.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(workers: usize, trace_dir: Option<String>) -> Result<Daemon, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            idle_timeout_ms: 60_000,
            max_requests_per_conn: u64::MAX,
            trace_dir,
            ..ServeConfig::default()
        };
        let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    /// Requests every pool spec twice — a miss, then a hit — and
    /// returns the first bodies, counting each request as an operation.
    fn warm(
        &self,
        pool: &[(AlgorithmKind, &'static str, u64)],
        out: &mut Outcome,
    ) -> Result<Vec<Vec<u8>>, String> {
        let mut conn = client::Conn::connect(&self.addr.to_string()).map_err(|e| e.to_string())?;
        let mut first = Vec::new();
        for &(kind, scenario, seed) in pool {
            let request = body(kind, scenario, seed);
            let a = conn
                .request("POST", "/run", &request)
                .map_err(|e| e.to_string())?;
            let b = conn
                .request("POST", "/run", &request)
                .map_err(|e| e.to_string())?;
            out.op(a.status == 200);
            out.op(b.status == 200 && b.header("x-cache") == Some("hit") && b.body == a.body);
            first.push(a.body);
        }
        Ok(first)
    }

    fn metrics(&self) -> Result<Json, String> {
        let resp = client::get(&self.addr.to_string(), "/metrics").map_err(|e| e.to_string())?;
        Json::parse(&resp.text()).map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "the daemon panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

fn drive(
    addr: SocketAddr,
    phase: &Phase,
    abort_over: Option<(u64, usize)>,
) -> Result<LoadResult, String> {
    let load = Load {
        addr,
        bodies: &phase.bodies,
        expected: &phase.expected,
        keep_unchecked: KEEP_MISSES,
        inflight_cap: INFLIGHT_CAP,
        abort_over,
        drain: DRAIN,
    };
    loadgen::drive(&load, &phase.plan).map_err(|e| format!("load: {e}"))
}

/// Counts the requests a phase sent: each is an operation, failed when
/// unanswered, not 200, or not byte-identical to its spec's first
/// response.
fn count_ops(out: &mut Outcome, result: &LoadResult) {
    for rec in result.records.iter().filter(|r| r.sent) {
        out.op(rec.ok());
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The spec a served miss ran, admitted the way the daemon admits it.
fn served_spec(body: &[u8]) -> Result<RunSpec, String> {
    let mut spec = parse_run_body(body)?;
    spec.budget.max_n = Some(MAX_SERVED_N);
    Ok(spec)
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = pool(ctx.seed);
    let mut fresh = Fresh::new(ctx.seed);

    let mut setup = Vec::new();
    let mut daemon = None;
    let mut expected = Vec::new();
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let start = Instant::now();
        let d = Daemon::start(ctx.threads, None)?;
        expected = d.warm(&pool, &mut out)?;
        setup.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let mix = Mix {
        seed: ctx.seed,
        conns: ctx.threads,
        pool: &pool,
        expected: &expected,
    };
    out.push(Metric::timing("setup_s", "s", stats::mid(&setup)));

    if ctx.traced {
        traced(ctx, &mut out, daemon, &mix, &mut fresh)?;
        return Ok(out);
    }

    // The latency phase runs first, on the freshly warmed daemon; the
    // capacity search's overload probes come after it.
    let latency_time = ctx.seconds * LATENCY_SHARE.0 / LATENCY_SHARE.1;
    let phase = mix.phase(1, FIXED_RPS, latency_time, &mut fresh);
    let result = drive(daemon.addr, &phase, None)?;
    out.metrics.extend(crate::peak_rss());
    count_ops(&mut out, &result);
    check_misses(&mut out, &phase, &result, None)?;

    let rungs = loadgen::ladder(LADDER.0, LADDER.1, LADDER.2);
    let probe_time = (ctx.seconds * PROBE_SHARE.0 / PROBE_SHARE.1).max(Duration::from_secs(1));
    let mut salt = 100;
    let mut probe = |rate: f64| {
        salt += 1;
        let phase = mix.phase(salt, rate, probe_time, &mut fresh);
        let max_over = phase.plan.len() / ABORT_OVER_EVERY;
        let probe = drive(
            daemon.addr,
            &phase,
            Some(((LIMIT_MS * 1e6) as u64, max_over)),
        )?;
        count_ops(&mut out, &probe);
        check_misses(&mut out, &phase, &probe, None)?;
        Ok::<_, String>(loadgen::judge(
            rate,
            &probe.records,
            probe.elapsed,
            LIMIT_MS,
        ))
    };
    // A rung fails only when two probes at it fail. The first seconds at
    // a high rate after the latency phase run slow (repeating the first
    // probe's rate gave window p99s of 120, then 80, then 14 ms), and a
    // stall of the host fails one probe, not two in a row.
    let mut failed_once = Vec::new();
    let (best, tried) = loadgen::capacity_search(&rungs, |rate| {
        let first = probe(rate)?;
        if first.pass {
            return Ok(first);
        }
        failed_once.push(first);
        probe(rate)
    })?;
    let capacity = best.ok_or("no rung of the capacity ladder met the latency limit")?;
    daemon.stop()?;

    let window = loadgen::window_len(FIXED_RPS);
    out.push(Metric::timing(
        "p50_ms",
        "ms",
        loadgen::windowed(&result.records, window, 50.0),
    ));
    out.push(Metric::timing(
        "tail_ms",
        "ms",
        loadgen::windowed(&result.records, window, 99.0),
    ));
    out.push(Metric::value(
        "throughput_per_s",
        "1/s",
        capacity.achieved,
        tried.len() + failed_once.len(),
    ));
    out.extra
        .push(("capacity_rung_rps", Json::Float(capacity.rate)));
    out.extra.push(("fixed_rps", Json::Float(FIXED_RPS)));
    out.extra.push(("limit_ms", Json::Float(LIMIT_MS)));
    out.extra
        .push(("probes", Json::Arr(tried.iter().map(probe_json).collect())));
    out.extra.push((
        "failed_once",
        Json::Arr(failed_once.iter().map(probe_json).collect()),
    ));
    Ok(out)
}

fn probe_json(p: &Probe) -> Json {
    Json::obj(vec![
        ("rate", Json::Float(p.rate)),
        ("pass", Json::Bool(p.pass)),
        ("achieved", Json::Float(p.achieved)),
        ("p99_ms", Json::Float(p.p99_ms)),
    ])
}

/// Checks every kept miss body against `canonical_report_body(run(spec))`
/// in process. Traced, the run is taken apart under benchmark spans.
fn check_misses(
    out: &mut Outcome,
    phase: &Phase,
    result: &LoadResult,
    tel: Option<&Telemetry>,
) -> Result<(), String> {
    for (idx, served) in &result.kept {
        let spec = served_spec(&phase.bodies[phase.plan[*idx].spec])?;
        let bytes = match tel {
            None => canonical_report_body(run(&spec).map_err(|e| e.to_string())?),
            Some(tel) => {
                let pool = ScratchPool::new();
                let mut spec = spec;
                spec.executor = spec.executor.clone().with_scratch(&pool);
                let (g, label) = build_workload(&spec).map_err(|e| e.to_string())?;
                let report = {
                    let mut span = tel.span("bench.miss_compute");
                    let (report, _) = run_detailed(&g, &label, &spec).map_err(|e| e.to_string())?;
                    span.arg("rounds", report.substrate.rounds as u64);
                    span.arg("total_words", report.substrate.total_words as u64);
                    span.arg("max_load_words", report.substrate.max_load_words as u64);
                    span.arg("scratch_alloc_bytes", pool.stats().allocated_bytes);
                    report
                };
                let mut span = tel.span_tagged("bench.render", "serve");
                let bytes = canonical_report_body(report);
                span.arg("bytes", bytes.len() as u64);
                bytes
            }
        };
        out.op(bytes == *served);
    }
    Ok(())
}

/// Records every answered request of a phase as a benchmark span whose
/// arguments carry the client-side timing, tagged by `x-cache`.
fn record_client(tel: &Telemetry, name: &'static str, result: &LoadResult) {
    let now = Instant::now();
    for rec in &result.records {
        let Some(latency) = rec.latency_ns else {
            continue;
        };
        let tag = match rec.hit {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "other",
        };
        tel.record_span(
            name,
            Some(tag),
            now,
            &[("latency_ns", latency), ("late_ns", rec.late_ns)],
        );
    }
}

/// `(cumulative count per bucket, bytes served, requests)` from a
/// `GET /metrics` document.
fn histogram(doc: &Json) -> (Vec<u64>, u64, u64) {
    let lat = doc.get("latency_ms");
    let listed: Vec<(f64, u64)> = lat
        .and_then(|l| l.get("buckets"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| Some((b.get("le")?.as_f64()?, b.get("count")?.as_i64()? as u64)))
        .collect();
    // Only the occupied range is listed: below it the cumulative count
    // is 0, above it the last listed count.
    let mut cum = Vec::with_capacity(LATENCY_BUCKETS);
    let mut running = 0;
    for i in 0..LATENCY_BUCKETS {
        if let Some(&(_, c)) = listed.iter().find(|(le, _)| *le == bucket_upper_ms(i)) {
            running = c;
        }
        cum.push(running);
    }
    let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0) as u64;
    (cum, int("bytes_served"), int("requests"))
}

/// Nearest-rank percentile of a cumulative bucket histogram: the upper
/// bound of the bucket holding the rank, in nanoseconds.
fn histogram_percentile_ns(cum: &[u64], p: f64) -> u64 {
    let total = cum.last().copied().unwrap_or(0);
    if total == 0 {
        return 0;
    }
    let rank = stats::rank(total as usize, p) as u64;
    let i = cum.iter().position(|&c| c >= rank).unwrap_or(cum.len() - 1);
    (bucket_upper_ms(i) * 1e6) as u64
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    untraced: Daemon,
    mix: &Mix,
    fresh: &mut Fresh,
) -> Result<(), String> {
    // Both phases replay the start of the untraced run's latency-phase
    // schedule (its misses get fresh seeds again), one per daemon, each
    // for half the untraced phase's length.
    let length = ctx.seconds * LATENCY_SHARE.0 / LATENCY_SHARE.1 / 2;
    let tel = Telemetry::recording();
    let trace_dir =
        std::path::Path::new(crate::OUT_DIR).join(format!("daemon-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);

    let phase_a = mix.phase(1, FIXED_RPS, length, fresh);
    let result_a = drive(untraced.addr, &phase_a, None)?;
    count_ops(out, &result_a);
    check_misses(out, &phase_a, &result_a, None)?;
    untraced.stop()?;
    record_client(&tel, "bench.client_untraced", &result_a);

    let daemon = Daemon::start(ctx.threads, Some(trace_dir.to_string_lossy().into_owned()))?;
    let expected = daemon.warm(mix.pool, out)?;
    out.op(expected == mix.expected);
    let mut collector = DaemonTrace::new(trace_dir.clone());
    let before = histogram(&daemon.metrics()?);
    let phase_b = mix.phase(1, FIXED_RPS, length, fresh);
    let result_b = std::thread::scope(|scope| {
        let load = scope.spawn(|| drive(daemon.addr, &phase_b, None));
        while !load.is_finished() {
            std::thread::sleep(Duration::from_millis(500));
            collector.poll(false).map_err(|e| e.to_string())?;
        }
        load.join()
            .map_err(|_| "the load thread panicked".to_string())?
    })?;
    let after = histogram(&daemon.metrics()?);
    daemon.stop()?;
    collector.poll(true).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&trace_dir);
    count_ops(out, &result_b);
    record_client(&tel, "bench.client", &result_b);

    let diff: Vec<u64> = after.0.iter().zip(&before.0).map(|(a, b)| a - b).collect();
    {
        let _span = tel
            .span("bench.server_histogram")
            .with_arg("p50_ns", histogram_percentile_ns(&diff, 50.0))
            .with_arg("p99_ns", histogram_percentile_ns(&diff, 99.0))
            .with_arg("bytes", after.1 - before.1)
            .with_arg("requests", after.2 - before.2);
    }

    check_misses(out, &phase_b, &result_b, Some(&tel))?;
    request_path(&tel, &phase_b)?;

    let path = trace::path_for("serve-mix");
    trace::write(&path, &tel.drain(), Some(&collector)).map_err(|e| e.to_string())?;
    layer_metrics(out, &Spans::load(&path).map_err(|e| e.to_string())?);
    Ok(())
}

/// Times the request path's pieces on the phase's own request bytes:
/// head parsing, body parsing, cache-key rendering, and LRU insert and
/// lookup, each under one span per batch of calls.
fn request_path(tel: &Telemetry, phase: &Phase) -> Result<(), String> {
    let planned = &phase.plan[..phase.plan.len().min(MICRO_REQUESTS)];
    let wires: Vec<Vec<u8>> = planned
        .iter()
        .map(|p| {
            let body = &phase.bodies[p.spec];
            let mut wire = format!(
                "POST /run HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(body);
            wire
        })
        .collect();
    let specs = planned
        .iter()
        .map(|p| served_spec(&phase.bodies[p.spec]))
        .collect::<Result<Vec<_>, _>>()?;
    let keys: Vec<String> = specs.iter().map(|s| cache_key(s, None)).collect();
    let reply: Arc<[u8]> = Arc::from(phase.expected[0].clone().unwrap_or_default());
    let mut cache = ReportCache::new(ServeConfig::default().cache_capacity);
    for start in (0..planned.len()).step_by(MICRO_BATCH) {
        let batch = start..(start + MICRO_BATCH).min(planned.len());
        let calls = batch.len() as u64;
        {
            let _span = tel.span("bench.http.parse_head").with_arg("calls", calls);
            for wire in &wires[batch.clone()] {
                std::hint::black_box(parse_head(wire).map_err(|e| e.to_string())?);
            }
        }
        {
            let _span = tel.span("bench.parse_run_body").with_arg("calls", calls);
            for p in &planned[batch.clone()] {
                std::hint::black_box(parse_run_body(&phase.bodies[p.spec])?);
            }
        }
        {
            let _span = tel.span("bench.cache_key").with_arg("calls", calls);
            for spec in &specs[batch.clone()] {
                std::hint::black_box(cache_key(spec, None));
            }
        }
        let owned: Vec<String> = keys[batch.clone()].to_vec();
        {
            let _span = tel.span("bench.cache.insert").with_arg("calls", calls);
            for key in owned {
                cache.insert(key, Arc::clone(&reply));
            }
        }
        {
            let _span = tel.span("bench.cache.get").with_arg("calls", calls);
            for key in &keys[batch.clone()] {
                std::hint::black_box(cache.get(key));
            }
        }
    }
    Ok(())
}

fn layer_metrics(out: &mut Outcome, spans: &Spans) {
    const TAGS: [&str; 3] = ["hit", "miss", "other"];
    let client = |name: &str, tags: &[&str], key: &str| -> Vec<f64> {
        tags.iter()
            .flat_map(|tag| spans.args(name, tag, key))
            .map(|ns| ns / 1e6)
            .collect()
    };
    let hits = client("bench.client", &["hit"], "latency_ns");
    let misses = client("bench.client", &["miss"], "latency_ns");
    let all = client("bench.client", &TAGS, "latency_ns");
    let late = client("bench.client", &TAGS, "late_ns");
    for (metric, summary) in [
        ("serve.hit_p50_ms", stats::mid(&hits)),
        ("serve.hit_p99_ms", stats::at(&hits, 99.0)),
        ("serve.miss_p50_ms", stats::mid(&misses)),
        ("serve.miss_p99_ms", stats::at(&misses, 99.0)),
        ("serve.gen_late_p99_ms", stats::at(&late, 99.0)),
        (
            "serve.miss_compute_ms",
            stats::mid(&spans.ms("bench.miss_compute", "")),
        ),
        (
            "bench.render_ms.serve",
            stats::mid(&spans.ms("bench.render", "serve")),
        ),
    ] {
        out.push(Metric::timing(metric, "ms", summary));
    }
    out.push(Metric::value(
        "serve.hit_rate",
        "ratio",
        hits.len() as f64 / all.len().max(1) as f64,
        all.len(),
    ));

    // The daemon's own view: its latency histogram (after minus before
    // the phase) and bytes served per request.
    let hist = spans.get("bench.server_histogram", "").first();
    let arg = |key: &str| hist.map_or(0, |r| r.arg(key));
    let requests = arg("requests") as usize;
    for p in [50.0, 99.0] {
        out.push(Metric {
            percentile: Some(p),
            ..Metric::value(
                format!("serve.server_p{p}_ms"),
                "ms",
                ms(arg(&format!("p{p}_ns")) as u64),
                requests,
            )
        });
    }
    out.push(Metric::value(
        "serve.bytes_per_req",
        "bytes",
        arg("bytes") as f64 / requests.max(1) as f64,
        requests,
    ));

    for (metric, span) in [
        ("http.parse_head_us", "bench.http.parse_head"),
        ("serve.parse_run_body_us", "bench.parse_run_body"),
        ("serve.cache_key_us", "bench.cache_key"),
        ("cache.get_us", "bench.cache.get"),
        ("cache.insert_us", "bench.cache.insert"),
    ] {
        let per_call: Vec<f64> = spans
            .get(span, "")
            .iter()
            .map(|r| r.dur_ns as f64 / 1e3 / r.arg("calls").max(1) as f64)
            .collect();
        out.push(Metric::timing(metric, "us", stats::mid(&per_call)));
    }

    // Queue wait: the daemon's miss request spans (parse to last byte)
    // minus its worker spans, on average.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let request_miss = spans.ms("request", "miss");
    let worker = spans.ms("serve.worker", "/run");
    out.push(Metric::value(
        "serve.queue_wait_ms",
        "ms",
        mean(&request_miss) - mean(&worker),
        request_miss.len(),
    ));
    let render_bytes = spans.args("bench.render", "serve", "bytes");
    out.push(Metric::value(
        "bench.render_bytes.serve",
        "bytes",
        median(&render_bytes),
        render_bytes.len(),
    ));
    // Misses cover every algorithm kind, metered or not, so the substrate
    // counts are per-miss means: a median reads 0 whenever most checked
    // misses happen to be unmetered.
    for (metric, unit, key) in [
        ("substrate.rounds.serve", "count", "rounds"),
        ("substrate.total_words.serve", "words", "total_words"),
        ("substrate.max_load_words.serve", "words", "max_load_words"),
        (
            "substrate.scratch_alloc_bytes.serve",
            "bytes",
            "scratch_alloc_bytes",
        ),
    ] {
        let xs = spans.args("bench.miss_compute", "", key);
        out.push(Metric::value(metric, unit, mean(&xs), xs.len()));
    }
    let untraced = client("bench.client_untraced", &TAGS, "latency_ns");
    crate::push_overhead(out, &all, &untraced);
}

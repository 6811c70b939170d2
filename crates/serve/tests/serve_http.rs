//! End-to-end tests of the serving daemon over real sockets: endpoint
//! contracts, the full algorithm × scenario matrix byte-identical to the
//! driver, cache-hit soundness, worker-count invariance under concurrent
//! clients, and content-addressed file workloads.

use mmvc_core::json::Json;
use mmvc_core::run::AlgorithmKind;
use mmvc_graph::scenarios;
use mmvc_serve::{canonical_report_body, client, parse_run_body, ServeConfig, Server};

/// Starts a daemon on an ephemeral port; returns its address and a
/// join/shutdown closure.
fn start(workers: usize, cache_capacity: usize) -> (String, impl FnOnce()) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run());
    (addr, move || {
        handle.shutdown();
        thread.join().unwrap().unwrap();
    })
}

/// The canonical bytes the daemon must serve for a spec: the driver run
/// locally, wall zeroed, deterministic renderer.
fn local_reference(body: &str) -> Vec<u8> {
    let spec = parse_run_body(body.as_bytes()).expect("valid spec body");
    let report = mmvc_core::run::run(&spec).expect("local run succeeds");
    canonical_report_body(report)
}

#[test]
fn endpoints_answer_and_validate() {
    let (addr, stop) = start(2, 16);

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.text()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));

    let sc = client::get(&addr, "/scenarios").unwrap();
    assert_eq!(sc.status, 200);
    let doc = Json::parse(&sc.text()).unwrap();
    assert_eq!(
        doc.get("scenarios").and_then(Json::as_arr).unwrap().len(),
        scenarios::all().len()
    );

    let alg = client::get(&addr, "/algorithms").unwrap();
    let doc = Json::parse(&alg.text()).unwrap();
    assert_eq!(
        doc.get("algorithms").and_then(Json::as_arr).unwrap().len(),
        AlgorithmKind::ALL.len()
    );

    let metrics = client::get(&addr, "/metrics").unwrap();
    let doc = Json::parse(&metrics.text()).unwrap();
    assert!(doc.get("cache").is_some());
    assert!(doc.get("latency_ms").is_some());

    // Error contracts: unknown path, wrong method, malformed bodies.
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/run").unwrap().status, 405);
    assert_eq!(
        client::request(&addr, "POST", "/healthz", b"")
            .unwrap()
            .status,
        405
    );
    for bad_body in [
        &b"not json"[..],
        br#"{"scenario": "gnp-sparse"}"#,
        br#"{"algorithm": "nope", "scenario": "gnp-sparse"}"#,
        br#"{"algorithm": "greedy-mis", "scenario": "unknown"}"#,
        br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "bogus": 1}"#,
        br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 1, "n": 2}"#,
    ] {
        let resp = client::request(&addr, "POST", "/run", bad_body).unwrap();
        assert_eq!(
            resp.status,
            400,
            "body {:?}",
            String::from_utf8_lossy(bad_body)
        );
        let doc = Json::parse(&resp.text()).unwrap();
        assert!(doc.get("error").is_some());
    }

    stop();
}

#[test]
fn full_matrix_matches_driver_byte_for_byte() {
    // The acceptance matrix: every algorithm kind × every registered
    // scenario served with a body byte-identical to the local driver.
    let (addr, stop) = start(3, 256);
    for kind in AlgorithmKind::ALL {
        for sc in scenarios::all() {
            let body = format!(
                r#"{{"algorithm": "{}", "scenario": "{}", "n": 64, "seed": 11}}"#,
                kind.name(),
                sc.name
            );
            let resp = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "{} on {}: {}", kind, sc.name, resp.text());
            assert_eq!(
                resp.body,
                local_reference(&body),
                "{} on {} must be byte-identical to the driver",
                kind,
                sc.name
            );
        }
    }
    stop();
}

#[test]
fn scale_tier_is_refused_by_default_and_admitted_by_max_n() {
    // Default cap: a scale scenario resolves to its 2^20 default size and
    // must be refused explicitly — naming the cap and the remedy — even
    // though the spec body itself carries no `n`.
    let (addr, stop) = start(2, 16);
    let body = br#"{"algorithm": "greedy-mis", "scenario": "scale-gnp-1m"}"#;
    let resp = client::request(&addr, "POST", "/run", body).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let err = Json::parse(&resp.text()).unwrap();
    let message = err.get("error").and_then(Json::as_str).unwrap().to_string();
    assert!(message.contains("capped at n"), "got: {message}");
    assert!(message.contains("--max-n"), "names the remedy: {message}");

    // An explicit n above the cap is refused the same way.
    let big = br#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 200000}"#;
    assert_eq!(
        client::request(&addr, "POST", "/run", big).unwrap().status,
        400
    );
    stop();

    // A daemon with a raised cap admits the same scale spec (down-sized
    // here so the test stays fast — the admission logic is what's under
    // test, and it keys on the cap, not the workload family).
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_capacity: 16,
        max_n: 1 << 21,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run());
    let small_scale = br#"{"algorithm": "luby-mis", "scenario": "scale-gnp-1m", "n": 512}"#;
    let resp = client::request(&addr, "POST", "/run", small_scale).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    assert_eq!(metrics.get("max_n").and_then(Json::as_i64), Some(1 << 21));
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn repeated_spec_hits_the_cache_with_identical_bytes() {
    let (addr, stop) = start(2, 16);
    let body = r#"{"algorithm": "mpc-matching", "scenario": "power-law", "n": 96, "seed": 3}"#;

    let cold = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let warm = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(
        warm.body, cold.body,
        "a hit must be byte-identical to the cold run"
    );
    assert_eq!(cold.body, local_reference(body));

    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_i64), Some(1));
    stop();
}

#[test]
fn concurrent_clients_get_identical_bytes_for_any_worker_count() {
    // N parallel clients replaying the same spec mix must observe
    // byte-identical bodies per spec — whatever the worker count, and
    // wherever in the interleaving a request lands (cold or cached).
    let mix: Vec<String> = [
        ("greedy-mis", "gnp-sparse"),
        ("luby-mis", "power-law"),
        ("central", "bipartite"),
        ("filtering", "geometric"),
        ("vertex-cover", "gnm"),
        ("local-mis", "grid"),
    ]
    .iter()
    .map(|(alg, sc)| format!(r#"{{"algorithm": "{alg}", "scenario": "{sc}", "n": 80, "seed": 5}}"#))
    .collect();
    let references: Vec<Vec<u8>> = mix.iter().map(|b| local_reference(b)).collect();

    for workers in [1, 4] {
        let (addr, stop) = start(workers, 64);
        let clients = 6;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let addr = &addr;
                let mix = &mix;
                let references = &references;
                scope.spawn(move || {
                    // Each client walks the mix at a different phase, so
                    // cold runs and hits interleave differently per client.
                    for step in 0..mix.len() {
                        let i = (step + c) % mix.len();
                        let resp =
                            client::request(addr, "POST", "/run", mix[i].as_bytes()).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        assert_eq!(
                            resp.body, references[i],
                            "client {c} step {step} (workers={workers}) diverged"
                        );
                    }
                });
            }
        });
        stop();
    }
}

#[test]
fn graph_file_workloads_are_content_addressed() {
    let dir = std::env::temp_dir();
    let path = dir.join("mmvc_serve_graph_file_test.txt");
    let path_str = path.to_str().unwrap().to_string();
    let write_graph = |n: usize, p: f64, seed: u64| {
        let g = mmvc_graph::generators::gnp(n, p, seed).unwrap();
        let mut buf = Vec::new();
        mmvc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
    };

    let (addr, stop) = start(2, 16);
    let body = format!(r#"{{"algorithm": "greedy-mis", "graph_file": "{path_str}", "seed": 9}}"#);

    write_graph(60, 0.1, 1);
    let first = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));
    let doc = Json::parse(&first.text()).unwrap();
    assert_eq!(
        doc.get("graph").unwrap().get("n").and_then(Json::as_i64),
        Some(60)
    );
    assert_eq!(
        doc.get("scenario").and_then(Json::as_str),
        Some(format!("file:{path_str}").as_str())
    );

    let again = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, first.body);

    // Rewriting the file must change the address: same path, new content,
    // fresh run — never a stale hit.
    write_graph(72, 0.1, 2);
    let changed = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(
        changed.header("x-cache"),
        Some("miss"),
        "stale hit after file edit"
    );
    let doc = Json::parse(&changed.text()).unwrap();
    assert_eq!(
        doc.get("graph").unwrap().get("n").and_then(Json::as_i64),
        Some(72)
    );

    // Error contracts around file workloads.
    let with_n = format!(r#"{{"algorithm": "greedy-mis", "graph_file": "{path_str}", "n": 10}}"#);
    assert_eq!(
        client::request(&addr, "POST", "/run", with_n.as_bytes())
            .unwrap()
            .status,
        400
    );
    let missing = r#"{"algorithm": "greedy-mis", "graph_file": "/no/such/file.txt"}"#;
    let resp = client::request(&addr, "POST", "/run", missing.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("/no/such/file.txt"));

    // An unparseable file is rejected without echoing its contents —
    // the daemon must not be usable as a remote file reader.
    let secret = "hunter2-this-line-must-not-leak";
    std::fs::write(&path, format!("{secret}\n")).unwrap();
    let resp = client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.text().contains("cannot parse line 1"),
        "{}",
        resp.text()
    );
    assert!(
        !resp.text().contains(secret),
        "file contents leaked into the error body"
    );

    std::fs::remove_file(&path).ok();
    stop();
}

#[test]
fn served_work_is_bounded() {
    let (addr, stop) = start(1, 4);
    // A tiny body demanding enormous work is rejected up front, before
    // any allocation or graph generation.
    let huge = r#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 4000000000}"#;
    let resp = client::request(&addr, "POST", "/run", huge.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("capped"), "{}", resp.text());
    stop();
}

#[test]
fn lru_eviction_is_visible_in_metrics() {
    let (addr, stop) = start(1, 2);
    let bodies: Vec<String> = (0..3)
        .map(|seed| {
            format!(
                r#"{{"algorithm": "luby-mis", "scenario": "gnp-sparse", "n": 64, "seed": {seed}}}"#
            )
        })
        .collect();
    for body in &bodies {
        client::request(&addr, "POST", "/run", body.as_bytes()).unwrap();
    }
    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("entries").and_then(Json::as_i64), Some(2));
    assert_eq!(cache.get("capacity").and_then(Json::as_i64), Some(2));
    // The evicted (oldest) spec misses again; the newest still hits.
    let evicted = client::request(&addr, "POST", "/run", bodies[0].as_bytes()).unwrap();
    assert_eq!(evicted.header("x-cache"), Some("miss"));
    let kept = client::request(&addr, "POST", "/run", bodies[2].as_bytes()).unwrap();
    assert_eq!(kept.header("x-cache"), Some("hit"));
    stop();
}

//! Keep-alive and framing tests against the reactor over real sockets:
//! pipelining in a single TCP segment (with response ordering across
//! the fast path and the worker pool), heads split across reads, idle
//! timeouts, oversized-request rejection, the per-connection request
//! quota, `Expect: 100-continue`, and byte-identity of keep-alive
//! responses against the local driver.

use mmvc_core::json::Json;
use mmvc_serve::{canonical_report_body, client, parse_run_body, ServeConfig, Server};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(config: ServeConfig) -> (String, impl FnOnce()) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
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

fn default_start() -> (String, impl FnOnce()) {
    start(ServeConfig {
        workers: 2,
        cache_capacity: 32,
        ..ServeConfig::default()
    })
}

/// The canonical bytes the daemon must serve for a spec: the driver run
/// locally, wall zeroed, deterministic renderer — the `mmvc run --json
/// --canonical` bytes.
fn local_reference(body: &str) -> Vec<u8> {
    let spec = parse_run_body(body.as_bytes()).expect("valid spec body");
    let report = mmvc_core::run::run(&spec).expect("local run succeeds");
    canonical_report_body(report)
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    // One worker: both /run jobs are parsed before either executes, so
    // they serialize through the pool and the second finds the first's
    // report in the cache. With more workers they could race and both
    // miss (each would still serve the same canonical bytes).
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        cache_capacity: 32,
        ..ServeConfig::default()
    });
    let body = r#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 64, "seed": 7}"#;
    let run_req = format!(
        "POST /run HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    // run (cold → worker pool), healthz (reactor fast path), run again
    // (hit). The healthz answer is computed long before the cold run
    // finishes, yet must not overtake it on the wire.
    let pipeline = format!("{run_req}GET /healthz HTTP/1.1\r\n\r\n{run_req}");

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(pipeline.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let first = client::read_response(&mut reader).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(first.body, local_reference(body));

    let second = client::read_response(&mut reader).unwrap();
    assert_eq!(second.status, 200);
    let doc = Json::parse(&second.text()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));

    let third = client::read_response(&mut reader).unwrap();
    assert_eq!(third.header("x-cache"), Some("hit"));
    assert_eq!(third.body, first.body, "hit is byte-identical");
    assert!(third.keep_alive());
    stop();
}

#[test]
fn partial_heads_across_many_reads_still_parse() {
    let (addr, stop) = default_start();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Dribble one request byte-group by byte-group: the reactor must
    // accumulate across reads without blocking anything else.
    for chunk in [
        "GET /hea",
        "lthz HT",
        "TP/1.1\r",
        "\nhost: x",
        "\r\n",
        "\r\n",
    ] {
        stream.write_all(chunk.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 200);
    stop();
}

#[test]
fn idle_connections_are_disconnected() {
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        cache_capacity: 4,
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    });
    // A connection that never sends a byte is reaped by the idle timer:
    // the read observes EOF well before the client-side timeout.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        stream.read(&mut buf).unwrap(),
        0,
        "server closed the idle conn"
    );

    // A connection idling *between* keep-alive requests is reaped too.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let resp = client::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.keep_alive());
    let mut buf = [0u8; 16];
    assert_eq!(
        reader.get_mut().read(&mut buf).unwrap(),
        0,
        "server closed after the idle window"
    );
    stop();
}

#[test]
fn oversized_heads_and_bodies_are_rejected() {
    let (addr, stop) = default_start();

    // A head that can never terminate within the cap: 431, then close.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n",
        "a".repeat(20 * 1024)
    );
    stream.write_all(huge_header.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let resp = client::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 431);
    assert!(!resp.keep_alive());
    let mut rest = Vec::new();
    reader.get_mut().read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closed after the 431");

    // A declared body over the cap: 413 before any body byte is read.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /run HTTP/1.1\r\ncontent-length: 5242880\r\n\r\n")
        .unwrap();
    let resp = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 413);
    assert!(!resp.keep_alive());
    stop();
}

#[test]
fn request_quota_closes_the_connection_politely() {
    let (addr, stop) = start(ServeConfig {
        workers: 1,
        cache_capacity: 4,
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });
    let mut conn = client::Conn::connect(&addr).unwrap();
    let first = conn.request("GET", "/healthz", b"").unwrap();
    assert!(first.keep_alive());
    let second = conn.request("GET", "/healthz", b"").unwrap();
    assert!(second.keep_alive());
    // The quota'd final response still answers — with `connection:
    // close` so the client knows to reconnect.
    let third = conn.request("GET", "/healthz", b"").unwrap();
    assert_eq!(third.status, 200);
    assert!(!third.keep_alive(), "last allowed response closes");
    assert!(
        conn.request("GET", "/healthz", b"").is_err(),
        "the connection is gone after the quota"
    );
    stop();
}

#[test]
fn expect_continue_is_acknowledged() {
    let (addr, stop) = default_start();
    let body = r#"{"algorithm": "luby-mis", "scenario": "gnp-sparse", "n": 64, "seed": 2}"#;
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\ncontent-length: {}\r\nexpect: 100-continue\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let interim = client::read_response(&mut reader).unwrap();
    assert_eq!(interim.status, 100);
    reader.get_mut().write_all(body.as_bytes()).unwrap();
    let resp = client::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, local_reference(body));
    stop();
}

#[test]
fn keepalive_responses_are_byte_identical_and_reuse_is_counted() {
    let (addr, stop) = default_start();
    let specs: Vec<String> = (0..4)
        .map(|seed| {
            format!(
                r#"{{"algorithm": "mpc-matching", "scenario": "power-law", "n": 80, "seed": {seed}}}"#
            )
        })
        .collect();

    // One connection, many requests: every body (cold or hot) pinned to
    // the `mmvc run --canonical` bytes.
    let mut conn = client::Conn::connect(&addr).unwrap();
    for pass in 0..2 {
        for body in &specs {
            let resp = conn.request("POST", "/run", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.header("x-cache"),
                Some(if pass == 0 { "miss" } else { "hit" })
            );
            assert_eq!(resp.body, local_reference(body), "pass {pass} diverged");
        }
    }
    assert_eq!(conn.requests_sent(), 8);

    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    assert_eq!(metrics.get("connections").and_then(Json::as_i64), Some(2));
    assert_eq!(
        metrics.get("keepalive_reuses").and_then(Json::as_i64),
        Some(7),
        "8 requests on one connection = 7 reuses"
    );
    let bytes = metrics.get("bytes_served").and_then(Json::as_i64).unwrap();
    assert!(bytes > 0, "bytes_served counts written responses");
    let latency = metrics.get("latency_ms").unwrap();
    assert!(latency.get("p999").is_some(), "p999 is published");
    // The latency histogram accounts for every request served, in
    // cumulative buckets whose bounds ascend.
    assert_eq!(metrics.get("requests").and_then(Json::as_i64), Some(8));
    assert_eq!(latency.get("count").and_then(Json::as_i64), Some(8));
    let buckets = latency.get("buckets").and_then(Json::as_arr).unwrap();
    let field = |b: &Json, k: &str| b.get(k).and_then(Json::as_f64).unwrap();
    assert!(buckets
        .windows(2)
        .all(|w| field(&w[0], "le") < field(&w[1], "le")
            && field(&w[0], "count") <= field(&w[1], "count")));
    let overflow = latency.get("overflow").and_then(Json::as_i64).unwrap();
    assert_eq!(
        buckets.last().map_or(0.0, |b| field(b, "count")) as i64 + overflow,
        8
    );
    stop();
}

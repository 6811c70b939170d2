//! Session-scoped serving over real sockets: create → run → update →
//! run, generation-keyed cache invalidation, the metrics counters, and
//! the satellite staleness guarantee — a stale generation is **never**
//! served as `x-cache: store`, even across a restart over the same
//! store directory.

use mmvc_core::json::Json;
use mmvc_serve::{client, ServeConfig, Server};
use std::path::{Path, PathBuf};

const SPEC: &str = r#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 128, "seed": 7}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmvc_serve_session_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(store_dir: Option<&Path>) -> (String, impl FnOnce()) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_capacity: 32,
        store_dir: store_dir.map(|p| p.to_string_lossy().into_owned()),
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

fn post(addr: &str, path: &str, body: &str) -> client::Response {
    client::request(addr, "POST", path, body.as_bytes()).unwrap()
}

fn create_session(addr: &str) -> i64 {
    let resp = post(addr, "/session", SPEC);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = Json::parse(&resp.text()).unwrap();
    assert_eq!(doc.get("generation").and_then(Json::as_i64), Some(0));
    assert!(doc.get("num_edges").and_then(Json::as_i64).unwrap() > 0);
    doc.get("session").and_then(Json::as_i64).unwrap()
}

fn run_session(addr: &str, id: i64) -> client::Response {
    let resp = post(addr, "/run", &format!(r#"{{"session": {id}}}"#));
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    resp
}

fn metrics(addr: &str) -> Json {
    Json::parse(&client::get(addr, "/metrics").unwrap().text()).unwrap()
}

#[test]
fn session_lifecycle_update_invalidates_by_generation() {
    let (addr, stop) = start(None);
    let id = create_session(&addr);

    // First run executes (miss), repeat hits under the same generation.
    let cold = run_session(&addr, id);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let warm = run_session(&addr, id);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "hit serves the cached bytes");
    let report = Json::parse(&cold.text()).unwrap();
    assert_eq!(
        report.get("graph").unwrap().get("n").and_then(Json::as_i64),
        Some(128)
    );

    // An update bumps the generation: the next run must miss (the old
    // entry is unreachable under the new key) and reflect the mutation.
    let upd = post(
        &addr,
        "/update",
        &format!(r#"{{"session": {id}, "insert": [[0, 1], [0, 2]], "delete": [[5, 9]]}}"#),
    );
    assert_eq!(upd.status, 200, "body: {}", upd.text());
    let upd = Json::parse(&upd.text()).unwrap();
    assert_eq!(upd.get("generation").and_then(Json::as_i64), Some(1));
    assert_eq!(upd.get("inserted").and_then(Json::as_i64), Some(2));

    let after = run_session(&addr, id);
    assert_eq!(
        after.header("x-cache"),
        Some("miss"),
        "update invalidated the cached generation"
    );
    assert_ne!(after.body, cold.body, "the report reflects the mutation");
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("hit"));

    // Counters: one session, one update, visible in /metrics.
    let m = metrics(&addr);
    assert_eq!(m.get("sessions").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("updates").and_then(Json::as_i64), Some(1));
    stop();
}

#[test]
fn stale_generation_is_never_served_from_the_store() {
    // The satellite guarantee: session responses stay out of the disk
    // staleness path. With a store configured, session runs are cached
    // in memory only — nothing session-scoped is persisted — so a
    // restarted daemon (whose generations restart at 0) can never
    // answer a session run with `x-cache: store`.
    let dir = temp_dir("stale");
    let (addr, stop) = start(Some(&dir));
    let id = create_session(&addr);
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("miss"));
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("hit"));
    post(
        &addr,
        "/update",
        &format!(r#"{{"session": {id}, "insert": [[3, 4]]}}"#),
    );
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("miss"));
    stop();

    // Restart over the same store directory. Sessions are gone (the
    // old id answers 400) and a recreated session's first run is a
    // recomputation — never a store hit, even though the same spec at
    // generation 0 ran before the restart.
    let (addr, stop) = start(Some(&dir));
    let gone = post(&addr, "/run", &format!(r#"{{"session": {id}}}"#));
    assert_eq!(gone.status, 400, "sessions do not survive restarts");

    let fresh = create_session(&addr);
    let first = run_session(&addr, fresh);
    assert_ne!(
        first.header("x-cache"),
        Some("store"),
        "a stale generation must never come back from disk"
    );
    assert_eq!(first.header("x-cache"), Some("miss"));
    let m = metrics(&addr);
    assert_eq!(
        m.get("cache")
            .unwrap()
            .get("store_hits")
            .and_then(Json::as_i64),
        Some(0),
        "no session body was ever persisted"
    );
    stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_errors_are_refused_cleanly() {
    let (addr, stop) = start(None);

    // Unknown session.
    let resp = post(&addr, "/run", r#"{"session": 99}"#);
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("no such session"));

    // Updates validate: unknown fields, malformed pairs, self-loops,
    // out-of-range endpoints.
    let id = create_session(&addr);
    for (body, needle) in [
        (
            format!(r#"{{"session": {id}, "bogus": 1}}"#),
            "unknown field",
        ),
        (format!(r#"{{"session": {id}, "insert": [1, 2]}}"#), "pairs"),
        (
            format!(r#"{{"session": {id}, "insert": [[4, 4]]}}"#),
            "self-loop",
        ),
        (
            format!(r#"{{"session": {id}, "insert": [[0, 4096]]}}"#),
            "out of range",
        ),
        ("{\"insert\": [[0, 1]]}".to_string(), "required"),
    ] {
        let resp = post(&addr, "/update", &body);
        assert_eq!(resp.status, 400, "body `{body}` must be refused");
        assert!(
            resp.text().contains(needle),
            "`{body}` → `{}` (wanted `{needle}`)",
            resp.text()
        );
    }

    // A failed update never bumps the generation: the next run still
    // hits the entry cached before the failures.
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("miss"));
    assert_eq!(run_session(&addr, id).header("x-cache"), Some("hit"));

    // graph_file specs cannot take residence.
    let resp = post(
        &addr,
        "/session",
        r#"{"algorithm": "greedy-mis", "graph_file": "/tmp/nope.txt"}"#,
    );
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("session residence"));
    stop();
}

#[test]
fn matching_sessions_serve_incremental_reports() {
    let (addr, stop) = start(None);
    let resp = post(
        &addr,
        "/session",
        r#"{"algorithm": "one-plus-eps", "scenario": "gnp-sparse", "n": 96, "seed": 3}"#,
    );
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let id = Json::parse(&resp.text())
        .unwrap()
        .get("session")
        .and_then(Json::as_i64)
        .unwrap();

    assert_eq!(run_session(&addr, id).header("x-cache"), Some("miss"));
    post(
        &addr,
        "/update",
        &format!(r#"{{"session": {id}, "insert": [[10, 11]], "delete": [[0, 1]]}}"#),
    );
    let incr = run_session(&addr, id);
    assert_eq!(incr.header("x-cache"), Some("miss"));
    let report = Json::parse(&incr.text()).unwrap();
    // The incremental report passes the same witness validation cold
    // runs do, and says so in its metrics.
    let witnesses = report.get("witnesses").unwrap().as_arr().unwrap();
    assert!(witnesses
        .iter()
        .all(|w| w.get("valid").and_then(Json::as_bool) == Some(true)));
    let metrics_obj = report.get("metrics").unwrap();
    assert_eq!(
        metrics_obj.get("incremental").and_then(Json::as_bool),
        Some(true),
        "report: {}",
        incr.text()
    );
    stop();
}

//! The persistent report store through the daemon's front door: a
//! restart keeps the hit rate, a corrupted entry degrades to a
//! recomputed miss (and is repaired on disk), and a daemon without
//! `--store-dir` demonstrably loses its cache across restarts.
//! Format-level corruption, version bumps, and writer races are covered
//! by the unit tests in `store.rs`; these tests pin the end-to-end
//! behavior over real sockets.

use mmvc_core::json::Json;
use mmvc_serve::{canonical_report_body, client, parse_run_body, ServeConfig, Server};
use std::path::{Path, PathBuf};

const SPEC: &str = r#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 96, "seed": 11}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmvc_serve_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(store_dir: Option<&Path>) -> (String, impl FnOnce()) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_capacity: 16,
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

fn run_spec(addr: &str) -> client::Response {
    let resp = client::request(addr, "POST", "/run", SPEC.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    resp
}

/// Every `.rpt` record file under the store root (the `tmp/` staging
/// directory is not part of the addressed namespace).
fn record_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir.file_name().is_some_and(|n| n == "tmp") {
            continue;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rpt") {
                found.push(path);
            }
        }
    }
    found
}

#[test]
fn restart_keeps_the_hit_rate() {
    let dir = temp_dir("restart");
    let reference = {
        let spec = parse_run_body(SPEC.as_bytes()).unwrap();
        canonical_report_body(mmvc_core::run::run(&spec).unwrap())
    };

    let (addr, stop) = start(Some(&dir));
    let cold = run_spec(&addr);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(cold.body, reference);
    assert_eq!(run_spec(&addr).header("x-cache"), Some("hit"));
    stop();
    assert_eq!(record_files(&dir).len(), 1, "one record persisted");

    // A new daemon over the same directory: the first request is a
    // memory miss answered from disk — no algorithm run — and the bytes
    // are still the canonical ones.
    let (addr, stop) = start(Some(&dir));
    let warm = run_spec(&addr);
    assert_eq!(warm.header("x-cache"), Some("store"));
    assert_eq!(warm.body, reference, "disk tier serves canonical bytes");
    // The store hit reloaded the memory tier.
    assert_eq!(run_spec(&addr).header("x-cache"), Some("hit"));

    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("store_hits").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(0));
    assert_eq!(
        metrics.get("store_dir").and_then(Json::as_str),
        Some(dir.to_string_lossy().as_ref())
    );
    stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_is_recomputed_and_repaired() {
    let dir = temp_dir("corrupt");
    let (addr, stop) = start(Some(&dir));
    let cold = run_spec(&addr);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    stop();

    let records = record_files(&dir);
    assert_eq!(records.len(), 1);
    let mut bytes = std::fs::read(&records[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // breaks the trailing checksum
    std::fs::write(&records[0], &bytes).unwrap();

    // The corrupt record is detected, discarded, and the run recomputes
    // — same canonical bytes, labeled a miss.
    let (addr, stop) = start(Some(&dir));
    let recomputed = run_spec(&addr);
    assert_eq!(recomputed.header("x-cache"), Some("miss"));
    assert_eq!(recomputed.body, cold.body);
    stop();

    // ... and the miss rewrote a valid record: the next restart serves
    // from disk again.
    let (addr, stop) = start(Some(&dir));
    assert_eq!(run_spec(&addr).header("x-cache"), Some("store"));
    stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_a_store_dir_restarts_forget() {
    let (addr, stop) = start(None);
    assert_eq!(run_spec(&addr).header("x-cache"), Some("miss"));
    assert_eq!(run_spec(&addr).header("x-cache"), Some("hit"));
    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().text()).unwrap();
    assert!(
        matches!(metrics.get("store_dir"), Some(Json::Null)),
        "store_dir is null when persistence is off"
    );
    stop();

    let (addr, stop) = start(None);
    assert_eq!(
        run_spec(&addr).header("x-cache"),
        Some("miss"),
        "no disk tier: the restarted daemon recomputes"
    );
    stop();
}

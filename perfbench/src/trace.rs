//! The traced run's single trace file and the span index read back
//! from it.
//!
//! In-process events (the program's spans and the benchmark's spans
//! around each layer call share one [`Telemetry`](mmvc_substrate::Telemetry)
//! sink) are rendered by the program's own JSONL exporter. The serving
//! daemon's rotated Chrome-trace files are folded into the same file,
//! one line per event with the same field names and values, marked
//! `"sink": "daemon"` because the daemon's sink has its own clock.
//! Every per-layer metric is computed from this file alone.

use mmvc_bench::{tracefmt, Json};
use mmvc_substrate::TraceEvent;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Collects the daemon's `trace-NNNNN.json` epoch files as they rotate
/// (the daemon keeps only the newest few, so they are read while the
/// run goes on, not at the end). Polling only copies the bytes; they
/// are parsed when the trace file is written, after the measurement.
#[derive(Debug)]
pub struct DaemonTrace {
    dir: PathBuf,
    epochs: BTreeMap<u64, String>,
}

impl DaemonTrace {
    pub fn new(dir: PathBuf) -> Self {
        DaemonTrace {
            dir,
            epochs: BTreeMap::new(),
        }
    }

    /// Copies every epoch file not yet seen. The newest file may still
    /// be being written, so it waits for the final poll.
    pub fn poll(&mut self, final_poll: bool) -> io::Result<()> {
        let mut indices: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix("trace-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()
            })
            .collect();
        indices.sort_unstable();
        let newest = indices.last().copied();
        for idx in indices {
            if self.epochs.contains_key(&idx) || (!final_poll && Some(idx) == newest) {
                continue;
            }
            let text = std::fs::read_to_string(self.dir.join(format!("trace-{idx:05}.json")))?;
            self.epochs.insert(idx, text);
        }
        Ok(())
    }

    /// Every epoch as JSONL lines; an error when an epoch rotated away
    /// before it was copied.
    fn lines(&self) -> io::Result<Vec<String>> {
        if self.epochs.keys().copied().ne(0..self.epochs.len() as u64) {
            return Err(bad("daemon trace epochs were lost to rotation"));
        }
        let mut lines = Vec::new();
        for (idx, text) in &self.epochs {
            let doc = Json::parse(text).map_err(|e| bad(&format!("daemon trace {idx}: {e}")))?;
            for event in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
                lines.push(chrome_to_line(event)?);
            }
        }
        Ok(lines)
    }
}

/// One Chrome trace event as a JSONL line with the exporter's field
/// names (`ts`/`dur` microseconds back to nanoseconds).
fn chrome_to_line(e: &Json) -> io::Result<String> {
    let ns = |key: &str| {
        e.get(key)
            .and_then(Json::as_f64)
            .map(|us| (us * 1e3).round() as i64)
    };
    let name = e
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("event without a name"))?;
    let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
    let tid = e.get("tid").and_then(Json::as_i64).unwrap_or(0);
    let args = e.get("args").and_then(Json::as_obj).unwrap_or(&[]);
    let arg = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let mut fields = vec![
        ("sink", Json::Str("daemon".to_string())),
        (
            "kind",
            Json::Str(if ph == "X" { "span" } else { "counter" }.to_string()),
        ),
        ("name", Json::Str(name.to_string())),
        ("start_ns", Json::Int(ns("ts").unwrap_or(0))),
        ("tid", Json::Int(tid)),
    ];
    if ph == "X" {
        fields.push(("dur_ns", Json::Int(ns("dur").unwrap_or(0))));
        fields.push(("id", arg("id").unwrap_or(Json::Int(0))));
        fields.push(("parent", arg("parent").unwrap_or(Json::Int(0))));
        if let Some(tag) = arg("tag") {
            fields.push(("tag", tag));
        }
        let rest: Vec<(String, Json)> = args
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "id" | "parent" | "tag"))
            .cloned()
            .collect();
        if !rest.is_empty() {
            fields.push(("args", Json::Obj(rest)));
        }
    } else {
        fields.push(("value", arg(name).unwrap_or(Json::Int(0))));
    }
    Ok(Json::obj(fields).render_compact())
}

/// Writes the one trace file: in-process events, then daemon events.
pub fn write(
    path: &Path,
    in_process: &[TraceEvent],
    daemon: Option<&DaemonTrace>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(tracefmt::jsonl(in_process).as_bytes())?;
    for line in daemon
        .map(DaemonTrace::lines)
        .transpose()?
        .unwrap_or_default()
    {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Rec {
    pub start_ns: i64,
    pub dur_ns: i64,
    pub args: Vec<(String, i64)>,
}

impl Rec {
    pub fn ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }

    /// An integer argument (0 when absent).
    pub fn arg(&self, key: &str) -> i64 {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Spans by `(name, tag)` (tag `""` when none), each list in start
/// order.
#[derive(Debug, Default)]
pub struct Spans {
    by_key: HashMap<(String, String), Vec<Rec>>,
}

impl Spans {
    /// Reads a trace file written by [`write`].
    pub fn load(path: &Path) -> io::Result<Spans> {
        let text = std::fs::read_to_string(path)?;
        let mut spans = Spans::default();
        for line in text.lines() {
            let doc = Json::parse(line).map_err(|e| bad(&format!("trace line: {e}")))?;
            if doc.get("kind").and_then(Json::as_str) != Some("span") {
                continue;
            }
            let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0);
            let name = doc
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let tag = doc
                .get("tag")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let args = doc
                .get("args")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_i64()?)))
                .collect();
            spans.by_key.entry((name, tag)).or_default().push(Rec {
                start_ns: int("start_ns"),
                dur_ns: int("dur_ns"),
                args,
            });
        }
        for recs in spans.by_key.values_mut() {
            recs.sort_by_key(|r| r.start_ns);
        }
        Ok(spans)
    }

    /// The spans named `name` with tag `tag`.
    pub fn get(&self, name: &str, tag: &str) -> &[Rec] {
        self.by_key
            .get(&(name.to_string(), tag.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Their durations in milliseconds.
    pub fn ms(&self, name: &str, tag: &str) -> Vec<f64> {
        self.get(name, tag).iter().map(Rec::ms).collect()
    }

    /// Per-span values of one integer argument.
    pub fn args(&self, name: &str, tag: &str, key: &str) -> Vec<f64> {
        self.get(name, tag)
            .iter()
            .map(|r| r.arg(key) as f64)
            .collect()
    }
}

/// The trace file of a workload's traced run, inside the checkout (each
/// traced run replaces the previous one's).
pub fn path_for(workload: &str) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("trace-{workload}.jsonl"))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_substrate::Telemetry;

    #[test]
    fn in_process_and_daemon_events_share_one_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(crate::OUT_DIR)
            .join(format!("unit-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon_tel = Telemetry::recording();
        {
            let _s = daemon_tel
                .span_tagged("serve.worker", "/run")
                .with_arg("n", 3);
        }
        let doc = tracefmt::chrome_trace(&daemon_tel.drain());
        std::fs::write(dir.join("trace-00000.json"), doc.render()).unwrap();
        let mut daemon = DaemonTrace::new(dir.clone());
        daemon.poll(false).unwrap();
        assert!(
            daemon.epochs.is_empty(),
            "the newest epoch waits for the final poll"
        );
        daemon.poll(true).unwrap();

        let tel = Telemetry::recording();
        {
            let _s = tel.span_tagged("bench.algo", "mis").with_arg("rounds", 4);
        }
        let path = dir.join("combined.jsonl");
        write(&path, &tel.drain(), Some(&daemon)).unwrap();
        let spans = Spans::load(&path).unwrap();
        assert_eq!(spans.args("bench.algo", "mis", "rounds"), vec![4.0]);
        let worker = spans.get("serve.worker", "/run");
        assert_eq!(worker.len(), 1);
        assert_eq!(worker[0].arg("n"), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

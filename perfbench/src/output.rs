//! The metric catalogue and the two lines a run prints: a detail line
//! (sample counts, percentile support, run context) and, last, the
//! result line `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every run prints every metric of its mode: all end-to-end metrics
//! untraced, all per-layer metrics traced. A per-layer metric that
//! belongs to another workload reads 0.

use crate::stats::Summary;
use mmvc_bench::Json;

/// End-to-end metrics, measured untraced on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The three cold-run specs, in rotation order.
pub const COLD_SPECS: [&str; 3] = ["mis", "matching", "cover"];

/// Per-layer metrics of one cold-run spec, each suffixed with its name.
pub const COLD_LAYERS: [(&str, &str); 11] = [
    ("graph.gen_ms", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("graph.memory_mib", "MiB"),
    ("core.algo_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.render_bytes", "bytes"),
    ("substrate.rounds", "count"),
    ("substrate.total_words", "words"),
    ("substrate.max_load_words", "words"),
    ("substrate.scratch_alloc_bytes", "bytes"),
];

/// Per-layer metrics of session-churn.
pub const CHURN_LAYERS: [(&str, &str); 10] = [
    ("session.apply_update_p50_ms", "ms"),
    ("session.apply_update_p90_ms", "ms"),
    ("session.run_incremental_p50_ms", "ms"),
    ("session.run_incremental_p90_ms", "ms"),
    ("session.incremental_frac", "ratio"),
    ("graph.delta_ops", "count"),
    ("substrate.scratch_alloc_bytes_per_cycle", "bytes"),
    ("graph.gen_ms.session", "ms"),
    ("graph.csr_build_ms.session", "ms"),
    ("graph.memory_mib.session", "MiB"),
];

/// Per-layer metrics of serve-mix.
pub const SERVE_LAYERS: [(&str, &str); 22] = [
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.gen_late_p99_ms", "ms"),
    ("http.parse_head_us", "us"),
    ("serve.parse_run_body_us", "us"),
    ("serve.cache_key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("serve.miss_compute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("bench.render_ms.serve", "ms"),
    ("bench.render_bytes.serve", "bytes"),
    ("substrate.rounds.serve", "count"),
    ("substrate.total_words.serve", "words"),
    ("substrate.max_load_words.serve", "words"),
    ("substrate.scratch_alloc_bytes.serve", "bytes"),
];

/// Per-layer metrics every workload reports.
pub const COMMON_LAYERS: [(&str, &str); 2] =
    [("trace_overhead_pct", "%"), ("failed_frac", "ratio")];

/// The full per-layer catalogue, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = COLD_SPECS
        .iter()
        .map(|s| (format!("{s}_ms"), "ms"))
        .collect();
    for spec in COLD_SPECS {
        for (name, unit) in COLD_LAYERS {
            out.push((format!("{name}.{spec}"), unit));
        }
    }
    for (name, unit) in CHURN_LAYERS
        .iter()
        .chain(&SERVE_LAYERS)
        .chain(&COMMON_LAYERS)
    {
        out.push((name.to_string(), unit));
    }
    out
}

/// One measured metric with the facts behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// The percentile a timing was read at (`None` for counts and
    /// ratios).
    pub percentile: Option<f64>,
    /// Whether at least ten samples lie beyond that percentile.
    pub supported: Option<bool>,
}

impl Metric {
    /// A timing read from a [`Summary`].
    pub fn timing(name: impl Into<String>, unit: &'static str, s: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: s.value,
            samples: s.samples,
            percentile: Some(s.percentile),
            supported: Some(s.supported),
        }
    }

    /// A count, ratio or total over `samples` observations.
    pub fn value(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            percentile: None,
            supported: None,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific facts for the detail line.
    pub extra: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The run context recorded with every result.
#[derive(Debug)]
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub nproc: usize,
    /// Executor threads, daemon workers and connections alike.
    pub threads: usize,
    pub commit: String,
}

/// The detail line: every metric with its sample count and percentile
/// support, plus the run context.
pub fn detail_line(info: &RunInfo, outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Json::Float(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
                ("samples", Json::Int(m.samples as i64)),
            ];
            if let Some(p) = m.percentile {
                fields.push(("percentile", Json::Float(p)));
            }
            if let Some(s) = m.supported {
                fields.push(("ten_beyond", Json::Bool(s)));
            }
            (m.name.clone(), Json::obj(fields))
        })
        .collect();
    let mut fields = vec![
        ("detail", Json::Str("perfbench".to_string())),
        ("workload", Json::Str(info.workload.clone())),
        ("seed", Json::Int(info.seed as i64)),
        ("seconds", Json::Int(info.seconds as i64)),
        ("trace", Json::Bool(info.traced)),
        ("nproc", Json::Int(info.nproc as i64)),
        ("threads", Json::Int(info.threads as i64)),
        ("connections", Json::Int(info.threads as i64)),
        ("build_profile", Json::Str("release".to_string())),
        ("commit", Json::Str(info.commit.clone())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ];
    fields.extend(outcome.extra.iter().cloned());
    Json::obj(fields).render_compact()
}

/// The result line. Untraced runs carry every end-to-end metric (an
/// absent one is a bug and is returned as an error); traced runs carry
/// every per-layer metric, 0 where the layer is not on this workload's
/// path.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match outcome.find(&name) {
            Some(m) if m.unit == unit => m.value,
            Some(m) => return Err(format!("{name} measured in {} not {unit}", m.unit)),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
    }

    #[test]
    fn result_line_fills_foreign_layers_with_zero_and_refuses_missing_end_to_end() {
        let mut outcome = Outcome::default();
        outcome.op(true);
        outcome.push(Metric::value("failed_frac", "ratio", 0.0, 1));
        let line = result_line(&outcome, true).unwrap();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), per_layer().len());
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result_line(&outcome, false).is_err());
    }
}

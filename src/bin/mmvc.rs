//! `mmvc` — command-line front end for the workspace.
//!
//! Drives any registered algorithm × scenario pair, or an edge-list file
//! (one `u v` pair per line; `#` comments; optional `# vertices: n`
//! header), through the unified run driver:
//!
//! ```text
//! mmvc list                                    # algorithms and scenarios
//! mmvc run <algorithm> <scenario|--graph-file PATH> [--n N] [--seed S] [--eps E]
//!          [--threads K] [--max-rounds R] [--max-load W] [--max-n N] [--json] [--canonical]
//!          [--trace-out PATH] [--trace-jsonl PATH]
//! mmvc serve [--addr A] [--workers W] [--cache-cap K] [--max-n N]   # run-serving daemon
//!            [--store-dir DIR] [--idle-timeout-ms T] [--max-reqs-per-conn R] [--trace-dir DIR]
//! mmvc stats <graph.txt>
//! mmvc gen   gnp|powerlaw <n> <param> [--seed S]   # writes to stdout
//! ```

use mmvc::core::run::{AlgorithmKind, RunSpec};
use mmvc::core::Epsilon;
use mmvc::graph::{generators, io, scenarios, stats, Graph};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mmvc list
  mmvc run <algorithm> <scenario|--graph-file PATH> [--n N] [--seed S] [--eps E]
           [--threads K] [--max-rounds R] [--max-load W] [--max-n N] [--json] [--canonical]
           [--trace-out PATH] [--trace-jsonl PATH]
  mmvc serve [--addr HOST:PORT] [--workers W] [--cache-cap K] [--max-n N]
             [--store-dir DIR] [--idle-timeout-ms T] [--max-reqs-per-conn R] [--trace-dir DIR]
  mmvc stats <graph.txt>
  mmvc gen gnp      <n> <p>          [--seed S]
  mmvc gen powerlaw <n> <avg_degree> [--seed S]";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(args),
        "serve" => cmd_serve(args),
        "stats" => cmd_stats(args),
        "gen" => cmd_gen(args),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_list() -> Result<(), String> {
    println!("algorithms:");
    for kind in AlgorithmKind::ALL {
        println!("  {:<18} {}", kind.name(), kind.description());
    }
    println!();
    println!("scenarios:");
    for sc in scenarios::all() {
        println!("  {:<18} n={:<6} {}", sc.name, sc.default_n, sc.description);
    }
    println!();
    println!("run any pair: mmvc run <algorithm> <scenario>");
    Ok(())
}

fn parse_optional<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid {flag} `{raw}`")),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let algorithm = args
        .get(1)
        .and_then(|a| AlgorithmKind::parse(a))
        .ok_or_else(|| {
            format!(
                "missing or unknown algorithm (one of: {})",
                AlgorithmKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    // The workload: a positional scenario name, or `--graph-file PATH`
    // for a user-supplied edge list (exactly one of the two).
    let scenario = args.get(2).filter(|a| !a.starts_with("--"));
    check_flags(
        args,
        if scenario.is_some() { 3 } else { 2 },
        &[
            "--n",
            "--seed",
            "--eps",
            "--threads",
            "--max-rounds",
            "--max-load",
            "--max-n",
            "--graph-file",
            "--trace-out",
            "--trace-jsonl",
        ],
        &["--json", "--canonical"],
    )?;

    let mut spec = match (scenario, flag_value(args, "--graph-file")) {
        (Some(scenario), None) => RunSpec::new(algorithm, scenario),
        (None, Some(path)) => RunSpec::from_file(algorithm, &path),
        (Some(_), Some(_)) => {
            return Err("give either a scenario or --graph-file, not both".to_string())
        }
        (None, None) => {
            return Err(format!(
                "missing workload: a scenario (one of: {}) or --graph-file PATH",
                scenarios::names().join(", ")
            ))
        }
    };
    spec.n = parse_optional(args, "--n")?;
    spec.seed = parse_seed(args)?;
    spec.eps = parse_eps(args)?;
    spec.executor = parse_executor(args)?;
    spec.budget.max_rounds = parse_optional(args, "--max-rounds")?;
    spec.budget.max_load_words = parse_optional(args, "--max-load")?;
    spec.budget.max_n = parse_optional(args, "--max-n")?;

    // Telemetry is out-of-band: attaching a recording sink changes no
    // reported number (the engine's determinism contract), it only
    // collects spans for the exporters below.
    let trace_out = flag_value(args, "--trace-out");
    let trace_jsonl = flag_value(args, "--trace-jsonl");
    let telemetry = if trace_out.is_some() || trace_jsonl.is_some() {
        mmvc::substrate::Telemetry::recording()
    } else {
        mmvc::substrate::Telemetry::disabled()
    };
    spec.executor = spec.executor.with_telemetry(&telemetry);

    let report = mmvc::core::run::run(&spec).map_err(|e| e.to_string())?;

    if telemetry.is_enabled() {
        let events = telemetry.drain();
        if let Some(path) = &trace_out {
            let doc = mmvc::core::tracefmt::chrome_trace(&events);
            std::fs::write(path, doc.render())
                .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
            eprintln!("trace: {} events -> {path}", events.len());
        }
        if let Some(path) = &trace_jsonl {
            std::fs::write(path, mmvc::core::tracefmt::jsonl(&events))
                .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
            eprintln!("trace: {} events -> {path}", events.len());
        }
    }

    if args.iter().any(|a| a == "--canonical") {
        // The exact bytes `mmvc serve` returns and caches for this spec
        // (wall time — the one nondeterministic field — zeroed).
        print!(
            "{}",
            String::from_utf8_lossy(&mmvc::serve::canonical_report_body(report.clone()))
        );
    } else if args.iter().any(|a| a == "--json") {
        print!("{}", mmvc::core::run::report_json(&report).render());
    } else {
        println!("algorithm   : {}", report.algorithm.name());
        println!(
            "scenario    : {} (n = {}, edges = {}, maxdeg = {})",
            report.scenario, report.n, report.num_edges, report.max_degree
        );
        for w in &report.witnesses {
            println!(
                "{:<12}: {} ({})",
                w.kind,
                w.size,
                if w.valid { "validated" } else { "INVALID" }
            );
        }
        println!(
            "rounds      : {} on {} (claimed {:.2}, ratio {:.2})",
            report.substrate.rounds,
            report.substrate.substrate,
            report.substrate.claimed_rounds,
            report.substrate.round_ratio()
        );
        if report.substrate.max_load_words > 0 {
            println!("max_load    : {} words", report.substrate.max_load_words);
            println!("total_words : {}", report.substrate.total_words);
        }
        for (name, value) in &report.metrics {
            println!("{name:<12}: {value}");
        }
        println!("wall        : {:.1} ms", report.wall_ms);
        for v in &report.budget_violations {
            println!("BUDGET      : {v}");
        }
    }

    if report.ok() {
        Ok(())
    } else if report.witnesses_valid() {
        Err("budget violated".to_string())
    } else {
        Err("witness validation failed".to_string())
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use mmvc::serve::{ServeConfig, Server};
    let mut config = ServeConfig::default();
    let mut i = 1;
    while i < args.len() {
        let value = |flag: &str| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match args[i].as_str() {
            "--addr" => {
                config.addr = value("--addr")?;
                i += 2;
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "invalid --workers".to_string())?;
                i += 2;
            }
            "--cache-cap" => {
                config.cache_capacity = value("--cache-cap")?
                    .parse()
                    .map_err(|_| "invalid --cache-cap".to_string())?;
                i += 2;
            }
            "--max-n" => {
                config.max_n = value("--max-n")?
                    .parse()
                    .map_err(|_| "invalid --max-n".to_string())?;
                i += 2;
            }
            "--store-dir" => {
                config.store_dir = Some(value("--store-dir")?);
                i += 2;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "invalid --idle-timeout-ms".to_string())?;
                i += 2;
            }
            "--max-reqs-per-conn" => {
                config.max_requests_per_conn = value("--max-reqs-per-conn")?
                    .parse()
                    .map_err(|_| "invalid --max-reqs-per-conn".to_string())?;
                i += 2;
            }
            "--trace-dir" => {
                config.trace_dir = Some(value("--trace-dir")?);
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}` for `mmvc serve`")),
        }
    }
    let server =
        Server::bind(&config).map_err(|e| format!("cannot start on {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "mmvc-serve listening on http://{addr} ({} workers, cache capacity {}, max n {}, store {})",
        config.workers.max(1),
        config.cache_capacity,
        config.max_n,
        config.store_dir.as_deref().unwrap_or("disabled")
    );
    eprintln!("endpoints: POST /run, GET /scenarios, GET /algorithms, GET /healthz, GET /metrics");
    server.run().map_err(|e| e.to_string())
}

/// Strict flag validation for `args[from..]`: every argument must be one
/// of the command's `value_flags` (followed by its value) or `switches`.
/// A misspelled `--sed 7` or a trailing `--seed` silently falling back
/// to a default would run something other than what was asked for.
fn check_flags(
    args: &[String],
    from: usize,
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut i = from;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if args.get(i + 1).is_none() {
                return Err(format!("{a} requires a value"));
            }
            i += 2;
        } else if switches.contains(&a) {
            i += 1;
        } else {
            return Err(format!("unknown argument `{a}` for `mmvc {}`", args[0]));
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--threads N` picks the round engine's executor (`0`/absent = auto
/// threaded, `1` = sequential). Results are identical either way — the
/// engine's determinism contract — only wall-time changes.
fn parse_executor(args: &[String]) -> Result<mmvc::substrate::ExecutorConfig, String> {
    use mmvc::substrate::ExecutorConfig;
    match flag_value(args, "--threads") {
        None => Ok(ExecutorConfig::threaded()),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) => Ok(ExecutorConfig::threaded()),
            Ok(k) => Ok(ExecutorConfig::with_threads(k)),
            Err(_) => Err(format!("invalid --threads `{raw}`")),
        },
    }
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    match flag_value(args, "--seed") {
        None => Ok(42),
        Some(s) => s.parse().map_err(|_| format!("invalid --seed `{s}`")),
    }
}

fn parse_eps(args: &[String]) -> Result<Epsilon, String> {
    let raw = match flag_value(args, "--eps") {
        None => 0.1,
        Some(s) => s.parse().map_err(|_| format!("invalid --eps `{s}`"))?,
    };
    Epsilon::new(raw).map_err(|e| e.to_string())
}

fn load_graph(args: &[String]) -> Result<Graph, String> {
    let path = args.get(1).ok_or("missing graph file")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_edge_list(file).map_err(|e| e.to_string())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    check_flags(args, 2, &[], &[])?;
    let g = load_graph(args)?;
    println!("vertices    : {}", g.num_vertices());
    println!("edges       : {}", g.num_edges());
    if let Some(s) = stats::degree_stats(&g) {
        println!(
            "degree      : min {} / median {} / mean {:.2} / p99 {} / max {}",
            s.min, s.median, s.mean, s.p99, s.max
        );
    }
    let (_, components) = g.connected_components();
    println!("components  : {components}");
    println!("degeneracy  : {}", stats::degeneracy(&g));
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    check_flags(args, 4, &["--seed"], &[])?;
    let kind = args.get(1).ok_or("missing generator kind")?;
    let n: usize = args
        .get(2)
        .ok_or("missing n")?
        .parse()
        .map_err(|_| "invalid n".to_string())?;
    let param: f64 = args
        .get(3)
        .ok_or("missing generator parameter")?
        .parse()
        .map_err(|_| "invalid parameter".to_string())?;
    let seed = parse_seed(args)?;
    let g = match kind.as_str() {
        "gnp" => generators::gnp(n, param, seed).map_err(|e| e.to_string())?,
        "powerlaw" => generators::power_law(n, 2.5, param, seed).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown generator `{other}`")),
    };
    io::write_edge_list(&g, std::io::stdout().lock()).map_err(|e| e.to_string())
}

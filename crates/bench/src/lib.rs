//! Shared helpers for the experiment binaries (`src/bin/exp_*.rs`) and
//! the `bench_scale` and `bench_update` gates of the `mmvc` workspace.
//!
//! Each experiment binary regenerates one table of `EXPERIMENTS.md` by
//! declaring [`mmvc_core::run::RunSpec`]s and rendering the resulting
//! [`mmvc_core::run::RunReport`]s through the [`report`] layer — run
//! them as `cargo run --release -p mmvc-bench --bin exp_e1` (etc.), with
//! `MMVC_JSON_DIR=<dir>` to also capture JSON sidecars. The experiment
//! index lives in `DESIGN.md` §7.
//!
//! Sidecars and the `BENCH_*.json` artifacts render through
//! [`mmvc_core::json`], the hand-rolled (no-serde) document model.

pub mod report;

pub use report::{finish_experiment, substrate_cells, Table, SUBSTRATE_COLUMNS};

// The repository benchmark (`perfbench/`) is the only user of these two
// re-exports; the workspace imports them from `mmvc_core`.
pub use mmvc_core::json::Json;
pub use mmvc_core::tracefmt;

use mmvc_substrate::ExecutorConfig;

/// Resolves the executor the experiment binaries thread into algorithm
/// configs, from the `MMVC_EXECUTOR` environment variable:
///
/// * unset or `auto` — [`ExecutorConfig::threaded`] (the default);
/// * `seq` — [`ExecutorConfig::sequential`];
/// * a number `k` — [`ExecutorConfig::with_threads`]`(k)`.
///
/// Executors never change results (the round engine's determinism
/// contract), only wall-time, so every `EXPERIMENTS.md` table is
/// reproducible regardless of this setting.
///
/// # Panics
///
/// Panics on an unrecognised value — a misconfigured benchmark run should
/// fail loudly, not silently fall back.
pub fn executor_from_env() -> ExecutorConfig {
    match std::env::var("MMVC_EXECUTOR") {
        Err(_) => ExecutorConfig::threaded(),
        Ok(v) if v == "auto" => ExecutorConfig::threaded(),
        Ok(v) if v == "seq" => ExecutorConfig::sequential(),
        Ok(v) => match v.parse::<usize>() {
            Ok(k) => ExecutorConfig::with_threads(k),
            Err(_) => panic!("MMVC_EXECUTOR must be `seq`, `auto`, or a thread count, got `{v}`"),
        },
    }
}

/// Ratio `opt / got`, reported as the achieved approximation factor
/// (`inf` when `got` is zero but `opt` is not, 1 when both are zero).
pub fn approx_ratio(opt: f64, got: f64) -> f64 {
    if got > 0.0 {
        opt / got
    } else if opt == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Minimum of a slice (`inf` for empty input).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice (`-inf` for empty input).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Renders an ASCII line chart of one or more named series over shared
/// x-labels — the "figures" of `EXPERIMENTS.md`.
///
/// Each series is drawn with its own glyph; points are plotted on a
/// `height`-row grid scaled to the global value range (y-axis annotated
/// left, x-labels below).
///
/// # Panics
///
/// Panics if series lengths disagree with `x_labels`, or `height < 2`.
///
/// # Examples
///
/// ```
/// use mmvc_bench::ascii_chart;
/// let chart = ascii_chart(
///     &["2^10".into(), "2^12".into(), "2^14".into()],
///     &[("ours", vec![10.0, 10.0, 11.0]), ("luby", vec![5.0, 6.0, 7.0])],
///     8,
/// );
/// assert!(chart.contains("ours"));
/// ```
pub fn ascii_chart(x_labels: &[String], series: &[(&str, Vec<f64>)], height: usize) -> String {
    assert!(height >= 2, "chart needs at least 2 rows");
    for (name, ys) in series {
        assert_eq!(
            ys.len(),
            x_labels.len(),
            "series `{name}` length must match x_labels"
        );
    }
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .collect();
    let (lo, hi) = (min(&all), max(&all));
    let span = (hi - lo).max(1e-12);
    let cols = x_labels.len();
    let col_width = 6usize;

    // Grid of rows (top = max).
    let mut grid = vec![vec![' '; cols * col_width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for (ci, &y) in ys.iter().enumerate() {
            let row = ((hi - y) / span * (height - 1) as f64).round() as usize;
            let col = ci * col_width + col_width / 2;
            let cell = &mut grid[row.min(height - 1)][col];
            // Collisions between series show the later glyph.
            *cell = glyph;
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:>8.1} |")
        } else if i == height - 1 {
            format!("{lo:>8.1} |")
        } else {
            format!("{:>8} |", "")
        };
        out.push_str(&label);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(cols * col_width)));
    out.push_str(&format!("{:>8}  ", ""));
    for l in x_labels {
        out.push_str(&format!("{l:^col_width$}"));
    }
    out.push('\n');
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", glyphs[i % glyphs.len()], name))
        .collect();
    out.push_str(&format!("{:>8}  legend: {}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_env_parsing() {
        // Only this test touches the variable, so set/remove is safe.
        std::env::remove_var("MMVC_EXECUTOR");
        assert_eq!(
            executor_from_env(),
            ExecutorConfig::threaded(),
            "unset variable must mean the threaded default"
        );
        std::env::set_var("MMVC_EXECUTOR", "seq");
        assert!(executor_from_env().is_sequential());
        std::env::set_var("MMVC_EXECUTOR", "4");
        assert_eq!(executor_from_env().threads(), 4);
        std::env::set_var("MMVC_EXECUTOR", "auto");
        assert!(executor_from_env().threads() >= 1);
        std::env::remove_var("MMVC_EXECUTOR");
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(approx_ratio(10.0, 5.0), 2.0);
        assert_eq!(approx_ratio(0.0, 0.0), 1.0);
        assert_eq!(approx_ratio(3.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(max(&[2.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn chart_renders_all_parts() {
        let labels = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let chart = ascii_chart(
            &labels,
            &[("up", vec![1.0, 2.0, 3.0]), ("flat", vec![2.0, 2.0, 2.0])],
            6,
        );
        assert!(chart.contains("* up"));
        assert!(chart.contains("o flat"));
        assert!(chart.contains('a') && chart.contains('c'));
        assert!(chart.contains("3.0") && chart.contains("1.0"));
        assert_eq!(
            chart.lines().count(),
            6 + 3,
            "rows + axis + labels + legend"
        );
    }

    #[test]
    fn chart_constant_series_no_panic() {
        let labels = vec!["x".to_string()];
        let chart = ascii_chart(&labels, &[("c", vec![5.0])], 4);
        assert!(chart.contains('*'));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn chart_length_mismatch_panics() {
        ascii_chart(&["a".to_string()], &[("s", vec![1.0, 2.0])], 4);
    }
}

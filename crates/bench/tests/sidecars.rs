//! Experiments as checked data.
//!
//! Every entry of `mmvc_bench::experiments` runs in process on three
//! threads and must render exactly its checked-in
//! `experiments/<name>.json`, and the generated tables of
//! `EXPERIMENTS.md` must equal those sidecars rendered as markdown. On a
//! mismatch a test writes the regenerated file under
//! `CARGO_TARGET_TMPDIR`; copying it over the checked-in one, in the
//! commit that moved it, blesses a deliberate change.
//!
//! E3, E6, E9 and E10 take about four seconds together in a debug build
//! and run with the suite. The other nine take 5–90 s each there
//! (0.6–11 s in release), so they are `#[ignore]`d and CI runs them in
//! release. This re-derives every table:
//!
//! ```text
//! cargo test --release -p mmvc-bench --test sidecars -- --include-ignored
//! ```

use mmvc_bench::experiments;
use mmvc_core::json::Json;
use mmvc_substrate::ExecutorConfig;
use std::path::PathBuf;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn registered() -> Vec<&'static str> {
    experiments::ALL.iter().map(|&(name, _)| name).collect()
}

/// Writes a regenerated file under `CARGO_TARGET_TMPDIR` and returns its
/// path.
fn write_regenerated(relative: &str, contents: &str) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(relative);
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    std::fs::write(&out, contents).unwrap();
    out
}

/// Runs experiment `name` on three threads and asserts that its sidecar
/// equals the checked-in one.
fn assert_reproduces(name: &str) {
    let &(_, experiment) = experiments::ALL
        .iter()
        .find(|&&(n, _)| n == name)
        .expect("registered experiment");
    let sidecar = experiments::sidecar(name, &experiment(&ExecutorConfig::with_threads(3)));
    let path = repo().join(format!("experiments/{name}.json"));
    if std::fs::read_to_string(&path).ok() != Some(sidecar.clone()) {
        let out = write_regenerated(&format!("experiments/{name}.json"), &sidecar);
        panic!(
            "{name} moved: its regenerated sidecar is {}\n\
             copy it over {} only for a deliberate change",
            out.display(),
            path.display()
        );
    }
}

/// One test per registry entry, so a failure names its experiment and a
/// test filter re-runs one. `TESTED` lists them for
/// `every_experiment_is_tested_and_checked_in`.
macro_rules! sidecar_tests {
    ($($(#[$attr:meta])* $test:ident: $name:literal,)*) => {
        const TESTED: &[&str] = &[$($name),*];
        $(
            #[test]
            $(#[$attr])*
            fn $test() {
                assert_reproduces($name);
            }
        )*
    };
}

sidecar_tests! {
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e1_sidecar_reproduces: "exp_e1",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e2_sidecar_reproduces: "exp_e2",
    exp_e3_sidecar_reproduces: "exp_e3",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e4_sidecar_reproduces: "exp_e4",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e5_sidecar_reproduces: "exp_e5",
    exp_e6_sidecar_reproduces: "exp_e6",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e7_sidecar_reproduces: "exp_e7",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e8_sidecar_reproduces: "exp_e8",
    exp_e9_sidecar_reproduces: "exp_e9",
    exp_e10_sidecar_reproduces_under_three_threads: "exp_e10",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e11_sidecar_reproduces: "exp_e11",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e12_sidecar_reproduces: "exp_e12",
    #[ignore = "slow in debug; CI runs it in release"]
    exp_e13_sidecar_reproduces: "exp_e13",
}

#[test]
fn every_experiment_is_tested_and_checked_in() {
    assert_eq!(TESTED, registered(), "one test per experiment");
    let mut files: Vec<String> = std::fs::read_dir(repo().join("experiments"))
        .expect("read experiments/")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = registered().iter().map(|n| format!("{n}.json")).collect();
    expected.sort();
    assert_eq!(
        files, expected,
        "one sidecar per experiment in experiments/"
    );
}

const BEGIN: &str = "<!-- generated from experiments/";
const END: &str = "<!-- end generated -->";

/// One markdown table row.
fn row(cells: &Json) -> String {
    let cells: Vec<String> = cells
        .as_arr()
        .expect("array of cells")
        .iter()
        .map(|c| c.as_str().expect("string cell").replace('|', "\\|"))
        .collect();
    format!("| {} |\n", cells.join(" | "))
}

/// A sidecar's tables as markdown: each titled, separated by blank lines.
fn markdown(sidecar: &Json) -> String {
    let tables = sidecar
        .get("tables")
        .and_then(Json::as_arr)
        .expect("tables");
    let mut md = String::new();
    for table in tables {
        let field = |key| table.get(key).unwrap_or_else(|| panic!("table {key}"));
        let columns = field("columns");
        md.push_str(&format!(
            "*{}*\n\n",
            field("title").as_str().expect("title")
        ));
        md.push_str(&row(columns));
        md.push_str(&format!(
            "|{}\n",
            "---|".repeat(columns.as_arr().unwrap().len())
        ));
        for cells in field("rows").as_arr().expect("rows") {
            md.push_str(&row(cells));
        }
        md.push('\n');
    }
    md
}

/// `text` with every generated block rendered afresh from the sidecar its
/// marker names, the names in file order, and the names whose blocks
/// changed.
fn render_experiments_md(text: &str) -> (String, Vec<String>, Vec<String>) {
    let (mut out, mut names, mut moved) = (String::new(), Vec::new(), Vec::new());
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(rest) = line.strip_prefix(BEGIN) else {
            continue;
        };
        let name = rest
            .strip_suffix(".json -->")
            .unwrap_or_else(|| panic!("malformed marker `{line}`"));
        let path = repo().join(format!("experiments/{name}.json"));
        let sidecar = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let block = format!(
            "\n{}",
            markdown(&Json::parse(&sidecar).expect("sidecar JSON"))
        );
        let mut old = String::new();
        loop {
            match lines.next() {
                Some(END) => break,
                Some(line) => {
                    old.push_str(line);
                    old.push('\n');
                }
                None => panic!("no `{END}` after the {name} marker"),
            }
        }
        if old != block {
            moved.push(name.to_string());
        }
        out.push_str(&block);
        out.push_str(END);
        out.push('\n');
        names.push(name.to_string());
    }
    (out, names, moved)
}

/// The generated tables of `EXPERIMENTS.md` are the checked-in sidecars,
/// one block per experiment in registry order; the prose around them is
/// hand-written.
#[test]
fn experiments_md_tables_match_the_sidecars() {
    let path = repo().join("EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let (rendered, names, moved) = render_experiments_md(&text);
    assert_eq!(names, registered(), "one generated block per experiment");
    if rendered != text {
        let out = write_regenerated("EXPERIMENTS.md", &rendered);
        panic!(
            "the generated tables of {moved:?} differ from their sidecars\n\
             regenerated file: {}\ncopy it over {}",
            out.display(),
            path.display()
        );
    }
}

//! The report layer of the experiments and gates: tables, and their
//! JSON form.
//!
//! Every experiment renders its rows through [`Table`] (one formatting
//! code path, including the substrate columns shared by every
//! claimed-vs-measured table); [`Table::to_json`] is the table's form in
//! a sidecar document ([`crate::experiments::sidecar`]).

use mmvc_core::json::Json;
use mmvc_core::run::SubstrateReport;

/// Header labels for the substrate-derived columns every experiment
/// table shares, matching [`substrate_cells`].
pub const SUBSTRATE_COLUMNS: [&str; 4] =
    ["rounds", "claimed_rounds", "round_ratio", "max_load_words"];

/// The TSV cells for a substrate report, in [`SUBSTRATE_COLUMNS`] order.
pub fn substrate_cells(r: &SubstrateReport) -> Vec<String> {
    vec![
        r.rounds.to_string(),
        format!("{:.2}", r.claimed_rounds),
        format!("{:.2}", r.round_ratio()),
        r.max_load_words.to_string(),
    ]
}

/// One printable (and JSON-serializable) experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table heading, printed as a `##` line and recorded in the sidecar.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Data rows; each must match `columns` in length.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table from a heading and column labels.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table whose columns are `before ++ SUBSTRATE_COLUMNS ++ after` —
    /// the shape of every claimed-vs-measured experiment table.
    pub fn with_substrate(title: &str, before: &[&str], after: &[&str]) -> Self {
        let mut columns: Vec<&str> = before.to_vec();
        columns.extend(SUBSTRATE_COLUMNS);
        columns.extend(after);
        Table::new(title, &columns)
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count disagrees with the column count — a
    /// declaration bug in the calling experiment, caught loudly.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != column count {} in table `{}`",
            cells.len(),
            self.columns.len(),
            self.title
        );
        self.rows.push(cells);
    }

    /// Prints the heading, TSV header, and rows to stdout.
    pub fn print(&self) {
        println!("## {}", self.title);
        println!("{}", self.columns.join("\t"));
        for row in &self.rows {
            println!("{}", row.join("\t"));
        }
    }

    /// The sidecar representation.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().cloned().map(Json::Str).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_substrate::{ExecutionTrace, RoundSummary};

    #[test]
    fn substrate_cells_match_columns() {
        let mut t = ExecutionTrace::new();
        t.record(RoundSummary {
            round: 1,
            max_load_words: 7,
            total_words: 20,
        });
        t.record(RoundSummary {
            round: 2,
            max_load_words: 3,
            total_words: 4,
        });
        let r = SubstrateReport::measure(&t, 4.0);
        assert_eq!(r.substrate, "trace");
        assert_eq!(r.rounds, 2);
        assert_eq!(r.max_load_words, 7);
        assert_eq!(r.total_words, 24);
        let cells = substrate_cells(&r);
        assert_eq!(cells.len(), SUBSTRATE_COLUMNS.len());
        assert_eq!(cells[0], "2");
        assert_eq!(cells[2], "0.50");
    }

    #[test]
    fn table_shapes_and_json() {
        let mut t = Table::with_substrate("demo", &["n"], &["extra"]);
        assert_eq!(t.columns.len(), 6);
        t.push(vec!["1".into(); 6]);
        let json = t.to_json().render();
        assert!(json.contains("\"demo\""));
        assert!(json.contains("\"claimed_rounds\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()]);
    }
}

//! The expected-decision table and the checks every answer goes through.
//!
//! The device simulation is deterministic, so every tune of the same
//! kernel, device and workload must reproduce the recorded `choice`,
//! `sequence` and both cycle counts exactly. `expected.tsv` holds one row
//! per `tune-suite` case (`tune` table) and per serve key (`serve` table);
//! `--record` regenerates it when a change is meant to move decisions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use grover_obs::json::{self, Json};
use grover_tuner::{Decision, TuneError};

/// The committed table.
const COMMITTED: &str = include_str!("../expected.tsv");

/// What a decision must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// `with_local_memory`, `without_local_memory` or `similar`.
    pub choice: String,
    /// The winning pass sequence.
    pub sequence: String,
    /// Simulated cycles of the original kernel.
    pub cycles_with: u64,
    /// Simulated cycles of the winning transformed kernel.
    pub cycles_without: u64,
}

/// `(table, case, device)`: `tune` cases are app ids, `serve` cases are
/// kernel names.
pub type Key = (String, String, String);

/// Expected decisions by key.
#[derive(Clone, Debug, Default)]
pub struct Table {
    rows: BTreeMap<Key, Row>,
}

fn key(table: &str, case: &str, device: &str) -> Key {
    (table.to_string(), case.to_string(), device.to_string())
}

impl Table {
    /// The table committed next to the benchmark.
    pub fn committed() -> Table {
        Table::parse(COMMITTED).expect("expected.tsv is well-formed")
    }

    /// Parse the tab-separated form written by [`Table::render`].
    pub fn parse(text: &str) -> Result<Table, String> {
        let mut t = Table::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [table, case, device, choice, sequence, with, without] = f[..] else {
                return Err(format!("line {}: expected 7 fields", n + 1));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("line {}: `{s}`: {e}", n + 1))
            };
            t.insert(
                table,
                case,
                device,
                Row {
                    choice: choice.to_string(),
                    sequence: sequence.to_string(),
                    cycles_with: num(with)?,
                    cycles_without: num(without)?,
                },
            );
        }
        Ok(t)
    }

    /// Set one row.
    pub fn insert(&mut self, table: &str, case: &str, device: &str, row: Row) {
        self.rows.insert(key(table, case, device), row);
    }

    /// The row for a key.
    pub fn get(&self, table: &str, case: &str, device: &str) -> Option<&Row> {
        self.rows.get(&key(table, case, device))
    }

    /// Compare an observed decision with its row.
    pub fn check(&self, table: &str, case: &str, device: &str, got: &Row) -> Result<(), String> {
        match self.get(table, case, device) {
            None => Err(format!("{table} {case} on {device}: no expected row")),
            Some(want) if want != got => Err(format!(
                "{table} {case} on {device}: got {got:?}, expected {want:?}"
            )),
            Some(_) => Ok(()),
        }
    }

    /// The tab-separated form, one row per line, sorted by key.
    pub fn render(&self) -> String {
        let mut s =
            String::from("# table\tcase\tdevice\tchoice\tsequence\tcycles_with\tcycles_without\n");
        for ((table, case, device), r) in &self.rows {
            let _ = writeln!(
                s,
                "{table}\t{case}\t{device}\t{}\t{}\t{}\t{}",
                r.choice, r.sequence, r.cycles_with, r.cycles_without
            );
        }
        s
    }
}

/// A tuner result as a row. A tune error or a decision demoted by a
/// fallback is a failed op.
pub fn decision_row(res: &Result<Decision, TuneError>) -> Result<Row, String> {
    let d = res.as_ref().map_err(|e| format!("tune failed: {e}"))?;
    if let Some(f) = &d.fallback {
        return Err(format!("decision fell back: {f}"));
    }
    Ok(Row {
        choice: d.choice.kind().to_string(),
        sequence: d.sequence.clone(),
        cycles_with: d.cycles_with,
        cycles_without: d.cycles_without,
    })
}

/// A `/v1/tune` answer that passed the structural checks.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The decision it carries.
    pub row: Row,
    /// Whether the server answered from its cache.
    pub cached: bool,
}

/// Check one `/v1/tune` answer: anything but a 200, a `degraded: true`
/// answer or a decision with a `fallback` is a failed op.
pub fn answer_row(status: u16, body: &str) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {}", body.trim()));
    }
    let v = json::parse(body).map_err(|e| format!("unparseable answer: {e}"))?;
    if v.bool_of("degraded") != Some(false) {
        return Err(format!("degraded answer: {}", body.trim()));
    }
    if !matches!(v.get("fallback"), Some(Json::Null)) {
        return Err(format!("answer fell back: {}", body.trim()));
    }
    let field = |k: &str| v.get(k).ok_or_else(|| format!("answer lacks `{k}`"));
    let text = |k: &str| {
        field(k)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("`{k}` is not a string"))
    };
    let count = |k: &str| {
        field(k)?
            .as_u64()
            .ok_or_else(|| format!("`{k}` is not a count"))
    };
    Ok(Answer {
        row: Row {
            choice: text("choice")?,
            sequence: text("sequence")?,
            cycles_with: count("cycles_with")?,
            cycles_without: count("cycles_without")?,
        },
        cached: v
            .bool_of("cached")
            .ok_or_else(|| "answer lacks `cached`".to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_covers_every_case() {
        let t = Table::committed();
        // 11 apps × 6 devices, and 9 sources × 6 devices, after the header.
        assert_eq!(t.render().lines().count(), 1 + 66 + 54);
        assert_eq!(Table::parse(&t.render()).unwrap().render(), t.render());
    }
}

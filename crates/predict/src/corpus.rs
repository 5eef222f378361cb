//! The JSONL training table: measured decisions joined with features.
//!
//! One line per measured decision. Each row is self-describing — it
//! carries the feature schema hash and the pass-fingerprint epoch it was
//! produced under, so a corpus can never silently feed a mismatched
//! trainer. `grover corpus export` writes this format; `grover train`
//! reads it; the predict test fixtures are rows of it.

use grover_obs::json::{self, Obj};

use crate::features::{schema_hash, FeatureVector, FEATURES_VERSION};
use crate::model::{TrainRow, Verdict};

/// One corpus line: the join of a journal decision and its features.
#[derive(Clone, Debug)]
pub struct CorpusRow {
    /// App id (or fingerprint when exported from a serve journal).
    pub app: String,
    /// Kernel name.
    pub kernel: String,
    /// Device profile.
    pub device: String,
    /// Measured choice ([`Verdict::kind`] wire name).
    pub choice: Verdict,
    /// Measured np ratio.
    pub np: f64,
    /// Cycles of the original kernel.
    pub cycles_with: u64,
    /// Cycles of the transformed kernel.
    pub cycles_without: u64,
    /// Static features of the original kernel + geometry.
    pub features: FeatureVector,
}

impl CorpusRow {
    /// Serialise one JSONL line (no trailing newline).
    pub fn to_json(&self, epoch: &str) -> String {
        Obj::new()
            .str("app", &self.app)
            .str("kernel", &self.kernel)
            .str("device", &self.device)
            .str("choice", self.choice.kind())
            .f64("np", self.np)
            .u64("cycles_with", self.cycles_with)
            .u64("cycles_without", self.cycles_without)
            .u64("feature_schema_version", u64::from(FEATURES_VERSION))
            .str("feature_schema_hash", &schema_hash())
            .str("pass_fingerprint", epoch)
            .raw("features", &self.features.values_json())
            .finish()
    }

    /// Parse one line, validating schema hash and epoch strictly — a
    /// row produced under another schema or transform revision is an
    /// error, not a silent skip.
    pub fn parse(line: &str, ours_epoch: &str) -> Result<CorpusRow, String> {
        let doc = json::parse(line)?;
        let row_hash = doc
            .str_of("feature_schema_hash")
            .ok_or("corpus row missing feature_schema_hash")?;
        let ours = schema_hash();
        if row_hash != ours {
            return Err(format!(
                "corpus row feature schema {row_hash} does not match this binary's {ours}"
            ));
        }
        let row_epoch = doc
            .str_of("pass_fingerprint")
            .ok_or("corpus row missing pass_fingerprint")?;
        if row_epoch != ours_epoch {
            return Err(format!(
                "corpus row epoch {row_epoch} does not match this binary's {ours_epoch}"
            ));
        }
        let features = doc
            .get("features")
            .ok_or("corpus row missing features")
            .and_then(|v| FeatureVector::from_values_json(v).map_err(|_| "bad features array"))?;
        let need = |key: &str| -> Result<String, String> {
            doc.str_of(key)
                .map(str::to_string)
                .ok_or_else(|| format!("corpus row missing {key}"))
        };
        Ok(CorpusRow {
            app: need("app")?,
            kernel: need("kernel")?,
            device: need("device")?,
            choice: need("choice")
                .and_then(|s| Verdict::parse(&s).ok_or_else(|| format!("unknown choice {s:?}")))?,
            np: doc.f64_of("np").ok_or("corpus row missing np")?,
            cycles_with: doc.u64_of("cycles_with").unwrap_or(0),
            cycles_without: doc.u64_of("cycles_without").unwrap_or(0),
            features,
        })
    }

    /// View this row as a training row. The app id becomes the grouping
    /// key: the three NVD-MM variants are distinct Table-I apps sharing
    /// one kernel symbol, and leave-one-out holds apps out, not symbols.
    pub fn to_train_row(&self) -> TrainRow {
        TrainRow {
            device: self.device.clone(),
            kernel: self.app.clone(),
            features: self.features.clone(),
            choice: self.choice,
            np: self.np,
        }
    }
}

/// Parse a whole JSONL corpus (blank lines ignored). Fails on the first
/// invalid or stale row, naming its line number.
pub fn parse_corpus(text: &str, ours_epoch: &str) -> Result<Vec<CorpusRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = CorpusRow::parse(line, ours_epoch).map_err(|e| format!("line {}: {e}", i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

/// Convert corpus rows to training rows.
pub fn train_rows(rows: &[CorpusRow]) -> Vec<TrainRow> {
    rows.iter().map(CorpusRow::to_train_row).collect()
}

//! Interpretable per-device scorer trained from measured decisions.
//!
//! The model is deliberately boring: one ridge-regularised linear
//! regressor per device profile over the standardised feature vector,
//! predicting `ln(np)` (the paper's normalised-performance ratio), plus a
//! nearest-neighbour fallback keyed by feature distance. Both halves are
//! inspectable — every weight names a feature, every neighbour names a
//! kernel — so a prediction can always be explained.
//!
//! Serialisation is exact: Rust's `f64` `Display` prints the shortest
//! round-trip representation, so `train → save → load → score` is
//! bit-identical to scoring the in-memory model (covered by tests).

use std::collections::BTreeMap;

use grover_obs::json::{self, Json, Obj};

use crate::features::{schema_hash, FeatureVector, FEATURES_VERSION, FEATURE_NAMES};

/// Format tag written to (and required from) every `model.json`.
pub const MODEL_FORMAT: &str = "grover-predict-model";
/// Version of the model container format.
pub const MODEL_VERSION: u32 = 1;

/// The similarity band half-width of the paper's Table IV (§VI-B): a
/// test case within 5 % of `np = 1` is "similar", neither a gain nor a
/// loss.
pub const SIMILARITY_THRESHOLD: f64 = 0.05;

/// The outcome of one test case (paper §VI-B): which kernel version to
/// run. The tuner's decisions, the model's predictions, the corpus rows
/// and the paper tables all speak this one vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Keep the original kernel (`np < 1 - threshold`).
    WithLocalMemory,
    /// Run the transformed kernel (`np > 1 + threshold`).
    WithoutLocalMemory,
    /// Within the similarity band — either works.
    Similar,
}

impl Verdict {
    /// The stable wire name (`with_local_memory`, `without_local_memory`,
    /// `similar`) — the CLI's `--json` output, the serve responses, the
    /// journal, the corpus and the telemetry all carry it.
    pub fn kind(self) -> &'static str {
        match self {
            Verdict::WithLocalMemory => "with_local_memory",
            Verdict::WithoutLocalMemory => "without_local_memory",
            Verdict::Similar => "similar",
        }
    }

    /// Parse a wire name back to a verdict.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "with_local_memory" => Some(Verdict::WithLocalMemory),
            "without_local_memory" => Some(Verdict::WithoutLocalMemory),
            "similar" => Some(Verdict::Similar),
            _ => None,
        }
    }

    /// Classify an np ratio (`t_with / t_without`): above `1 + threshold`
    /// disabling local memory wins, below `1 - threshold` it loses, and
    /// the band in between (edges included) is similar.
    pub fn from_np(np: f64, threshold: f64) -> Verdict {
        if np > 1.0 + threshold {
            Verdict::WithoutLocalMemory
        } else if np < 1.0 - threshold {
            Verdict::WithLocalMemory
        } else {
            Verdict::Similar
        }
    }
}

/// One measured decision joined with its feature vector — a corpus row.
#[derive(Clone, Debug)]
pub struct TrainRow {
    /// Device profile the decision was measured on.
    pub device: String,
    /// Kernel name (the leave-one-out grouping key).
    pub kernel: String,
    /// Static features of the original kernel + geometry.
    pub features: FeatureVector,
    /// The measured choice.
    pub choice: Verdict,
    /// The measured np ratio (`cycles_with / cycles_without`).
    pub np: f64,
}

/// Training hyper-parameters. The defaults are tuned once against the
/// 12-app corpus and checked in CI; they are exposed so experiments can
/// vary them.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Gradient-descent iterations.
    pub iterations: u32,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Ridge (L2) regularisation strength.
    pub l2: f64,
    /// The similarity band half-width ([`SIMILARITY_THRESHOLD`] by
    /// default).
    pub threshold: f64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            iterations: 400,
            learning_rate: 0.1,
            l2: 1e-3,
            threshold: SIMILARITY_THRESHOLD,
        }
    }
}

/// A stored corpus row inside a device model — the nearest-neighbour
/// memory.
#[derive(Clone, Debug)]
struct StoredRow {
    kernel: String,
    values: Vec<f64>,
    choice: Verdict,
    np: f64,
}

/// The per-device half of the model: standardisation statistics, linear
/// weights over `ln(np)`, and the row memory for the neighbour fallback.
#[derive(Clone, Debug)]
pub struct DeviceModel {
    bias: f64,
    weights: Vec<f64>,
    mean: Vec<f64>,
    scale: Vec<f64>,
    rows: Vec<StoredRow>,
}

/// A scored prediction: the verdict, the estimated ratio, and how much
/// the model believes itself.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted tuning outcome.
    pub verdict: Verdict,
    /// Estimated np ratio.
    pub np_est: f64,
    /// Confidence in `[0, 1]`; serving compares this to
    /// `--predict-threshold` to decide hit vs fallback race.
    pub confidence: f64,
    /// Distance of `np_est` from the nearest decision boundary, in
    /// `ln(np)` units.
    pub margin: f64,
    /// Kernel name of the nearest training neighbour.
    pub neighbor_kernel: String,
    /// Normalised feature distance to that neighbour.
    pub neighbor_distance: f64,
    /// True when the query matched a training row exactly.
    pub exact_match: bool,
}

/// Why a saved model was refused.
#[derive(Debug)]
pub enum ModelError {
    /// The file is not a valid model document.
    Parse(String),
    /// The model was trained under a different feature schema.
    SchemaMismatch {
        /// Hash the model was trained with.
        model: String,
        /// Hash this binary computes.
        ours: String,
    },
    /// The model was trained under a different pass-fingerprint epoch.
    EpochMismatch {
        /// Epoch baked into the model.
        model: String,
        /// This binary's epoch.
        ours: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Parse(m) => write!(f, "model parse error: {m}"),
            ModelError::SchemaMismatch { model, ours } => write!(
                f,
                "stale model: feature schema {model} does not match this binary's {ours}"
            ),
            ModelError::EpochMismatch { model, ours } => write!(
                f,
                "stale model: pass-fingerprint epoch {model} does not match this binary's {ours}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// The full model: per-device scorers plus the provenance that makes
/// staleness observable.
#[derive(Clone, Debug)]
pub struct Model {
    /// Feature schema version the model was trained under.
    pub schema_version: u32,
    /// Feature schema hash the model was trained under.
    pub schema_hash: String,
    /// Pass-fingerprint epoch of the corpus (decisions from another
    /// transform revision must not be served).
    pub epoch: String,
    /// Similarity band half-width used when classifying `np_est`.
    pub threshold: f64,
    /// Per-device scorers, keyed by device profile name.
    pub devices: BTreeMap<String, DeviceModel>,
}

impl Model {
    /// Train from corpus rows. Rows with non-positive np are skipped
    /// (they carry no ratio information). Training is deterministic:
    /// fixed iteration count, no randomness, rows grouped per device in
    /// input order.
    pub fn train(rows: &[TrainRow], epoch: &str, cfg: &TrainConfig) -> Model {
        let mut by_device: BTreeMap<String, Vec<&TrainRow>> = BTreeMap::new();
        for r in rows {
            if r.np > 0.0 && r.np.is_finite() {
                by_device.entry(r.device.clone()).or_default().push(r);
            }
        }
        let devices = by_device
            .into_iter()
            .map(|(dev, rows)| (dev, DeviceModel::train(&rows, cfg)))
            .collect();
        Model {
            schema_version: FEATURES_VERSION,
            schema_hash: schema_hash(),
            epoch: epoch.to_string(),
            threshold: cfg.threshold,
            devices,
        }
    }

    /// Score a feature vector for a device. `None` when the model has no
    /// rows for that device (serving treats this as an abstain).
    pub fn predict(&self, device: &str, fv: &FeatureVector) -> Option<Prediction> {
        self.devices
            .get(device)
            .and_then(|m| m.predict(fv, self.threshold))
    }

    /// Devices the model can score.
    pub fn device_names(&self) -> Vec<&str> {
        self.devices.keys().map(String::as_str).collect()
    }

    /// Serialise to the versioned `model.json` document.
    pub fn to_json(&self) -> String {
        let mut devices = Obj::new();
        for (name, d) in &self.devices {
            devices = devices.raw(name, &d.to_json());
        }
        Obj::new()
            .str("format", MODEL_FORMAT)
            .u64("model_version", u64::from(MODEL_VERSION))
            .u64("feature_schema_version", u64::from(self.schema_version))
            .str("feature_schema_hash", &self.schema_hash)
            .str("pass_fingerprint", &self.epoch)
            .f64("threshold", self.threshold)
            .raw(
                "feature_names",
                &json::array(FEATURE_NAMES.iter().map(|n| format!("\"{n}\""))),
            )
            .raw("devices", &devices.finish())
            .finish()
    }

    /// Load and validate a `model.json` produced by [`Model::to_json`].
    /// `ours_epoch` is this binary's `pass_fingerprint()`; a model
    /// trained under a different schema or epoch is rejected with a
    /// specific, observable error.
    pub fn load(text: &str, ours_epoch: &str) -> Result<Model, ModelError> {
        let doc = json::parse(text).map_err(ModelError::Parse)?;
        if doc.str_of("format") != Some(MODEL_FORMAT) {
            return Err(ModelError::Parse(format!(
                "missing or wrong `format` tag (want {MODEL_FORMAT:?})"
            )));
        }
        let model_hash = doc
            .str_of("feature_schema_hash")
            .ok_or_else(|| ModelError::Parse("missing feature_schema_hash".into()))?;
        let ours_hash = schema_hash();
        if model_hash != ours_hash {
            return Err(ModelError::SchemaMismatch {
                model: model_hash.to_string(),
                ours: ours_hash,
            });
        }
        let model_epoch = doc
            .str_of("pass_fingerprint")
            .ok_or_else(|| ModelError::Parse("missing pass_fingerprint".into()))?;
        if model_epoch != ours_epoch {
            return Err(ModelError::EpochMismatch {
                model: model_epoch.to_string(),
                ours: ours_epoch.to_string(),
            });
        }
        let threshold = doc
            .f64_of("threshold")
            .ok_or_else(|| ModelError::Parse("missing threshold".into()))?;
        let schema_version = doc
            .u64_of("feature_schema_version")
            .ok_or_else(|| ModelError::Parse("missing feature_schema_version".into()))?
            as u32;
        let mut devices = BTreeMap::new();
        if let Some(Json::Obj(entries)) = doc.get("devices") {
            for (name, val) in entries {
                devices.insert(name.clone(), DeviceModel::from_json(val)?);
            }
        } else {
            return Err(ModelError::Parse("missing devices object".into()));
        }
        Ok(Model {
            schema_version,
            schema_hash: model_hash.to_string(),
            epoch: model_epoch.to_string(),
            threshold,
            devices,
        })
    }
}

/// Clamp for the regression target `ln(np)` — keeps outliers from
/// dominating the fit.
const LN_NP_CLAMP: f64 = 3.0;
/// Confidence assigned to exact corpus matches.
const EXACT_CONFIDENCE: f64 = 0.98;
/// Neighbours consulted by the interpolation half of the scorer.
const KNN_K: usize = 3;
/// Softening added to neighbour distances before inverse-square
/// weighting, so an all-but-exact match cannot produce an infinite
/// weight.
const KNN_EPS: f64 = 1e-3;
/// Standardised distance beyond which the corpus neighbourhood is not
/// trusted: past this radius the scorer extrapolates with the
/// regularised linear model instead of interpolating neighbours (and the
/// proximity term has already driven confidence toward zero).
const NEIGHBOR_RADIUS: f64 = 2.0;
/// ln(np) margin scale of the confidence model: a prediction one band
/// half-width (`ln 1.05 ≈ 0.049`) from a verdict boundary earns ~0.39 of
/// the margin term.
const MARGIN_SCALE: f64 = 0.1;
/// Distance scale of the proximity term: neighbour agreement only counts
/// while the nearest row is genuinely close in standardised space.
const PROXIMITY_SCALE: f64 = 0.3;
/// Weight of the band-margin term in the confidence blend.
const MARGIN_WEIGHT: f64 = 0.4;
/// Weight of the neighbour-agreement term in the confidence blend.
const AGREE_WEIGHT: f64 = 0.7;

/// Per-feature weights of the neighbour distance metric, in
/// [`FEATURE_NAMES`] order. Calibrated once by leave-one-app-out search
/// over the 12-app × 6-device corpus (see `tests/loo.rs`): the launch
/// geometry features (`wg_items_log2`, `groups_log2`) and the redundant
/// complement `gl_strided_frac` are excluded from *similarity* — two
/// kernels with the same memory behaviour at different launch sizes are
/// the same program for tuning purposes — while every behavioural
/// feature participates. They remain in the schema: the linear half and
/// the corpus still carry them.
const DISTANCE_WEIGHTS: [f64; 14] = [
    1.0, // insts_log2
    1.0, // barrier_density
    1.0, // global_load_frac
    1.0, // global_store_frac
    1.0, // local_load_frac
    1.0, // local_store_frac
    1.0, // local_reuse
    1.0, // reuse_distance
    1.0, // gl_coalesced_frac
    0.0, // gl_strided_frac (complement of coalesced: double-counting)
    1.0, // local_bytes_per_item
    0.0, // wg_items_log2 (launch geometry, not program behaviour)
    0.0, // groups_log2 (launch geometry, not program behaviour)
    1.0, // loop_trip_class
];
const _: () = assert!(DISTANCE_WEIGHTS.len() == FEATURE_NAMES.len());

/// Standardised distance under [`DISTANCE_WEIGHTS`], normalised by the
/// total weight so the scale is schema-independent.
fn weighted_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut wsum = 0.0;
    let mut sum = 0.0;
    for ((x, y), w) in a.iter().zip(b).zip(&DISTANCE_WEIGHTS) {
        wsum += w;
        sum += w * (x - y) * (x - y);
    }
    (sum / wsum.max(1e-12)).sqrt()
}

impl DeviceModel {
    /// Number of stored training rows backing the nearest-neighbour
    /// fallback.
    pub fn training_rows(&self) -> usize {
        self.rows.len()
    }

    fn train(rows: &[&TrainRow], cfg: &TrainConfig) -> DeviceModel {
        let n = rows.len().max(1) as f64;
        let dim = FEATURE_NAMES.len();

        // Standardise features per device.
        let mut mean = vec![0.0; dim];
        for r in rows {
            for (m, v) in mean.iter_mut().zip(r.features.values()) {
                *m += v / n;
            }
        }
        let mut scale = vec![0.0; dim];
        for r in rows {
            for (s, (v, m)) in scale.iter_mut().zip(r.features.values().iter().zip(&mean)) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut scale {
            *s = s.sqrt();
            if *s < 1e-9 {
                *s = 1.0;
            }
        }

        let xs: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| standardise(r.features.values(), &mean, &scale))
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| r.np.ln().clamp(-LN_NP_CLAMP, LN_NP_CLAMP))
            .collect();

        // Deterministic full-batch ridge gradient descent.
        let mut bias = 0.0;
        let mut weights = vec![0.0; dim];
        for _ in 0..cfg.iterations {
            let mut gb = 0.0;
            let mut gw = vec![0.0; dim];
            for (x, y) in xs.iter().zip(&ys) {
                let pred = bias + dot(&weights, x);
                let err = pred - y;
                gb += err / n;
                for (g, xv) in gw.iter_mut().zip(x) {
                    *g += err * xv / n;
                }
            }
            bias -= cfg.learning_rate * gb;
            for (w, g) in weights.iter_mut().zip(&gw) {
                *w -= cfg.learning_rate * (g + cfg.l2 * *w);
            }
        }

        let stored = rows
            .iter()
            .map(|r| StoredRow {
                kernel: r.kernel.clone(),
                values: r.features.values().to_vec(),
                choice: r.choice,
                np: r.np,
            })
            .collect();
        DeviceModel {
            bias,
            weights,
            mean,
            scale,
            rows: stored,
        }
    }

    fn predict(&self, fv: &FeatureVector, threshold: f64) -> Option<Prediction> {
        if self.rows.is_empty() {
            return None;
        }
        let x = standardise(fv.values(), &self.mean, &self.scale);

        // Neighbour ranking in standardised space under the calibrated
        // distance metric. Ties in distance resolve by row order, which
        // is corpus order, which is deterministic.
        let mut ranked: Vec<(f64, &StoredRow)> = self
            .rows
            .iter()
            .map(|r| {
                let rx = standardise(&r.values, &self.mean, &self.scale);
                (weighted_distance(&rx, &x), r)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let (nearest_d, nearest) = (ranked[0].0, ranked[0].1);

        let hi = (1.0 + threshold).ln();
        let lo = (1.0 - threshold).ln();

        // Exact corpus match: *all* features equal (both sides are
        // 1e-6-quantised, so equality is well-defined) — the calibrated
        // distance deliberately ignores launch geometry, so it alone
        // cannot distinguish the same kernel at two sizes, and must not
        // decide exactness.
        if let Some(row) = self.rows.iter().find(|r| r.values == fv.values()) {
            let y = row.np.max(f64::MIN_POSITIVE).ln();
            return Some(Prediction {
                verdict: row.choice,
                np_est: row.np,
                confidence: EXACT_CONFIDENCE,
                margin: (y - hi).abs().min((y - lo).abs()),
                neighbor_kernel: row.kernel.clone(),
                neighbor_distance: 0.0,
                exact_match: true,
            });
        }

        // ln(np) estimate: inverse-square-distance interpolation over the
        // k nearest measured rows while the query sits inside the corpus
        // neighbourhood; the regularised linear model extrapolates beyond
        // it (where confidence is near zero anyway).
        let k = self.rows.len().min(KNN_K);
        let y = if nearest_d <= NEIGHBOR_RADIUS {
            let mut num = 0.0;
            let mut den = 0.0;
            for (d, r) in &ranked[..k] {
                let w = 1.0 / ((d + KNN_EPS) * (d + KNN_EPS));
                num += w * r.np.ln().clamp(-LN_NP_CLAMP, LN_NP_CLAMP);
                den += w;
            }
            num / den
        } else {
            self.bias + dot(&self.weights, &x)
        };
        let np_est = y.exp();
        let verdict = Verdict::from_np(np_est, threshold);

        // Confidence: band margin plus proximity-gated neighbour
        // agreement. The blend is calibrated against the leave-one-app-out
        // corpus (tests/loo.rs) so that every disagreement there scores
        // below the 0.7 serving threshold — wrong answers abstain.
        let margin = (y - hi).abs().min((y - lo).abs());
        let conf_margin = 1.0 - (-margin / MARGIN_SCALE).exp();
        let agree = ranked[..k]
            .iter()
            .filter(|(_, r)| r.choice == verdict)
            .count() as f64
            / k as f64;
        let proximity = (-nearest_d / PROXIMITY_SCALE).exp();
        let confidence =
            (MARGIN_WEIGHT * conf_margin + AGREE_WEIGHT * agree * proximity).clamp(0.0, 1.0);

        Some(Prediction {
            verdict,
            np_est,
            confidence,
            margin,
            neighbor_kernel: nearest.kernel.clone(),
            neighbor_distance: nearest_d,
            exact_match: false,
        })
    }

    fn to_json(&self) -> String {
        let nums = |vs: &[f64]| json::array(vs.iter().map(|v| json::number(*v)));
        let rows = json::array(self.rows.iter().map(|r| {
            Obj::new()
                .str("kernel", &r.kernel)
                .str("choice", r.choice.kind())
                .f64("np", r.np)
                .raw("features", &nums(&r.values))
                .finish()
        }));
        Obj::new()
            .f64("bias", self.bias)
            .raw("weights", &nums(&self.weights))
            .raw("mean", &nums(&self.mean))
            .raw("scale", &nums(&self.scale))
            .raw("rows", &rows)
            .finish()
    }

    fn from_json(v: &Json) -> Result<DeviceModel, ModelError> {
        let parse = |m: &str| ModelError::Parse(m.to_string());
        let nums = |key: &str| -> Result<Vec<f64>, ModelError> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| parse(&format!("device model missing `{key}` array")))?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| parse(&format!("`{key}` entries must be numbers")))
        };
        let bias = v
            .f64_of("bias")
            .ok_or_else(|| parse("device model missing bias"))?;
        let weights = nums("weights")?;
        let mean = nums("mean")?;
        let scale = nums("scale")?;
        let rows_json = v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| parse("device model missing rows"))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for r in rows_json {
            let kernel = r
                .str_of("kernel")
                .ok_or_else(|| parse("row missing kernel"))?;
            let choice = r
                .str_of("choice")
                .and_then(Verdict::parse)
                .ok_or_else(|| parse("row missing/invalid choice"))?;
            let np = r.f64_of("np").ok_or_else(|| parse("row missing np"))?;
            let values = r
                .get("features")
                .and_then(Json::as_arr)
                .ok_or_else(|| parse("row missing features"))?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| parse("row features must be numbers"))?;
            rows.push(StoredRow {
                kernel: kernel.to_string(),
                values,
                choice,
                np,
            });
        }
        Ok(DeviceModel {
            bias,
            weights,
            mean,
            scale,
            rows,
        })
    }
}

fn standardise(values: &[f64], mean: &[f64], scale: &[f64]) -> Vec<f64> {
    values
        .iter()
        .zip(mean.iter().zip(scale))
        .map(|(v, (m, s))| (v - m) / s)
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------------
// Leave-one-out evaluation.
// ---------------------------------------------------------------------------

/// One leave-one-kernel-out prediction compared to its measured row.
#[derive(Clone, Debug)]
pub struct LooCase {
    /// Device the pair was measured on.
    pub device: String,
    /// Held-out kernel.
    pub kernel: String,
    /// What the model (trained without this kernel) predicted.
    pub predicted: Verdict,
    /// What the race measured.
    pub measured: Verdict,
    /// Model confidence for the held-out prediction.
    pub confidence: f64,
}

impl LooCase {
    /// Did the model agree with the measurement?
    pub fn agrees(&self) -> bool {
        self.predicted == self.measured
    }
}

/// Aggregate leave-one-kernel-out accuracy report.
#[derive(Clone, Debug, Default)]
pub struct LooReport {
    /// Every held-out case.
    pub cases: Vec<LooCase>,
}

impl LooReport {
    /// Fraction of cases where prediction matched measurement.
    pub fn accuracy(&self) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        self.cases.iter().filter(|c| c.agrees()).count() as f64 / self.cases.len() as f64
    }

    /// Highest confidence among disagreeing cases (serving is safe as
    /// long as `--predict-threshold` sits above this).
    pub fn max_wrong_confidence(&self) -> f64 {
        self.cases
            .iter()
            .filter(|c| !c.agrees())
            .map(|c| c.confidence)
            .fold(0.0, f64::max)
    }

    /// Per-device `(device, agreed, total)` rows for the accuracy table.
    pub fn by_device(&self) -> Vec<(String, usize, usize)> {
        let mut per: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for c in &self.cases {
            let e = per.entry(c.device.clone()).or_default();
            e.1 += 1;
            if c.agrees() {
                e.0 += 1;
            }
        }
        per.into_iter().map(|(d, (a, t))| (d, a, t)).collect()
    }
}

/// Leave-one-kernel-out evaluation: for each distinct kernel, train on
/// every row of every *other* kernel and predict the held-out rows.
/// Deterministic end to end.
pub fn evaluate_loo(rows: &[TrainRow], epoch: &str, cfg: &TrainConfig) -> LooReport {
    let mut kernels: Vec<&str> = rows.iter().map(|r| r.kernel.as_str()).collect();
    kernels.sort_unstable();
    kernels.dedup();

    let mut report = LooReport::default();
    for held in kernels {
        let train: Vec<TrainRow> = rows.iter().filter(|r| r.kernel != held).cloned().collect();
        let model = Model::train(&train, epoch, cfg);
        for r in rows.iter().filter(|r| r.kernel == held) {
            let Some(p) = model.predict(&r.device, &r.features) else {
                continue;
            };
            report.cases.push(LooCase {
                device: r.device.clone(),
                kernel: r.kernel.clone(),
                predicted: p.verdict,
                measured: r.choice,
                confidence: p.confidence,
            });
        }
    }
    report
}

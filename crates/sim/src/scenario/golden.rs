//! Golden statistical regression gates.
//!
//! A [`Golden`] snapshot pins every cell metric of one scenario at a fixed
//! `(preset, trials, seed)`: the blessed mean plus a tolerance band
//! derived from the standard error of the mean at bless time. Because the
//! whole pipeline is deterministic per seed, an unchanged tree reproduces
//! the blessed means *exactly*; the band exists so that legitimate
//! refactors — ones that reorder RNG draws or re-associate floating-point
//! sums without changing any distribution — still pass, while genuine
//! statistical regressions (a broken estimator, a mis-scaled attack) land
//! far outside it.
//!
//! Regeneration is deliberate, never implicit:
//! `LDP_BLESS_GOLDENS=1 cargo test --test golden_repro` rewrites the
//! checked-in files (see `tests/golden_repro.rs`).

use ldp_common::{LdpError, Result};

use crate::scenario::report::ScenarioReport;
use ldp_common::json::Json;

/// Multiplier on the SEM for the tolerance band: wide enough for an
/// RNG-stream refactor (which re-rolls the noise, moving each mean by
/// `O(√2·SEM)`), narrow enough that an order-of-magnitude regression — the
/// scale of every effect in the paper — cannot hide inside it.
const SEM_BAND: f64 = 8.0;

/// Relative floor of the band, covering metrics whose trial spread is
/// degenerate (e.g. a deterministic custom metric) against pure
/// floating-point re-association.
const REL_FLOOR: f64 = 1e-6;

/// Absolute floor of the band (means that are exactly zero).
const ABS_FLOOR: f64 = 1e-12;

/// A blessed snapshot of one scenario's cell metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// The scenario id this snapshot gates.
    pub figure: String,
    /// Trials per cell at bless time.
    pub trials: usize,
    /// Master seed at bless time.
    pub seed: u64,
    /// Scale label at bless time (`"small"`).
    pub scale: String,
    /// One entry per `(cell, metric)`.
    pub entries: Vec<GoldenEntry>,
}

/// One gated cell metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenEntry {
    /// Cell id.
    pub cell: String,
    /// Metric name.
    pub metric: String,
    /// Blessed mean.
    pub mean: f64,
    /// Half-width of the acceptance band.
    pub tol: f64,
}

impl Golden {
    /// Snapshots a report, deriving each entry's band from its SEM.
    pub fn from_report(report: &ScenarioReport) -> Self {
        let entries = report
            .cells
            .iter()
            .flat_map(|cell| {
                cell.metrics.iter().map(|(metric, stats)| GoldenEntry {
                    cell: cell.id.clone(),
                    metric: metric.clone(),
                    mean: stats.mean,
                    tol: (SEM_BAND * stats.sem())
                        .max(REL_FLOOR * stats.mean.abs())
                        .max(ABS_FLOOR),
                })
            })
            .collect();
        Self {
            figure: report.id.clone(),
            trials: report.trials,
            seed: report.seed,
            scale: report.scale_label.clone(),
            entries,
        }
    }

    /// Compares a fresh report against this snapshot. Returns every
    /// violation (empty = pass): settings drift, missing or extra cell
    /// metrics, and out-of-band means.
    pub fn compare(&self, report: &ScenarioReport) -> Vec<String> {
        let mut violations = Vec::new();
        if report.id != self.figure {
            violations.push(format!(
                "figure mismatch: golden '{}' vs report '{}'",
                self.figure, report.id
            ));
        }
        if report.trials != self.trials || report.seed != self.seed {
            violations.push(format!(
                "settings drift: golden trials={} seed={:#x} vs report trials={} seed={:#x}",
                self.trials, self.seed, report.trials, report.seed
            ));
        }
        if report.scale_label != self.scale {
            violations.push(format!(
                "scale drift: golden '{}' vs report '{}'",
                self.scale, report.scale_label
            ));
        }
        for entry in &self.entries {
            match report.metric(&entry.cell, &entry.metric) {
                None => violations.push(format!(
                    "{} / {}: metric vanished (blessed mean {:.6e})",
                    entry.cell, entry.metric, entry.mean
                )),
                Some(stats) => {
                    // NaN deltas (a NaN mean on either side) must fail.
                    let delta = (stats.mean - entry.mean).abs();
                    if delta.is_nan() || delta > entry.tol {
                        violations.push(format!(
                            "{} / {}: mean {:.6e} outside {:.6e} ± {:.2e} (Δ = {:.2e})",
                            entry.cell, entry.metric, stats.mean, entry.mean, entry.tol, delta
                        ));
                    }
                }
            }
        }
        // Metrics the golden has never seen: the snapshot is stale.
        for cell in &report.cells {
            for (metric, _) in &cell.metrics {
                if !self
                    .entries
                    .iter()
                    .any(|e| e.cell == cell.id && &e.metric == metric)
                {
                    violations.push(format!(
                        "{} / {metric}: new metric not in golden (re-bless)",
                        cell.id
                    ));
                }
            }
        }
        violations
    }

    /// Serializes to the checked-in JSON form.
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("cell".into(), Json::Str(e.cell.clone())),
                    ("metric".into(), Json::Str(e.metric.clone())),
                    ("mean".into(), Json::Num(e.mean)),
                    ("tol".into(), Json::Num(e.tol)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("figure".into(), Json::Str(self.figure.clone())),
            ("trials".into(), Json::Num(self.trials as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("cells".into(), Json::Arr(entries)),
        ])
    }

    /// Parses the checked-in JSON form.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for malformed JSON or missing
    /// fields.
    pub fn parse(text: &str) -> Result<Self> {
        let json = Json::parse(text)?;
        let str_field = |key: &str| -> Result<String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LdpError::invalid(format!("golden: missing string '{key}'")))
        };
        let num_field = |key: &str| -> Result<f64> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| LdpError::invalid(format!("golden: missing number '{key}'")))
        };
        let mut entries = Vec::new();
        for item in json
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| LdpError::invalid("golden: missing 'cells' array"))?
        {
            let field = |key: &str| {
                item.get(key)
                    .ok_or_else(|| LdpError::invalid(format!("golden cell: missing '{key}'")))
            };
            entries.push(GoldenEntry {
                cell: field("cell")?
                    .as_str()
                    .ok_or_else(|| LdpError::invalid("golden cell: 'cell' not a string"))?
                    .to_string(),
                metric: field("metric")?
                    .as_str()
                    .ok_or_else(|| LdpError::invalid("golden cell: 'metric' not a string"))?
                    .to_string(),
                mean: field("mean")?
                    .as_f64()
                    .ok_or_else(|| LdpError::invalid("golden cell: 'mean' not a number"))?,
                tol: field("tol")?
                    .as_f64()
                    .ok_or_else(|| LdpError::invalid("golden cell: 'tol' not a number"))?,
            });
        }
        Ok(Self {
            figure: str_field("figure")?,
            trials: num_field("trials")? as usize,
            seed: num_field("seed")? as u64,
            scale: str_field("scale")?,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Stats;
    use crate::scenario::report::CellReport;

    fn report(mean: f64) -> ScenarioReport {
        ScenarioReport {
            id: "figX".into(),
            title: "t".into(),
            paper_anchor: String::new(),
            trials: 3,
            seed: 1,
            scale_label: "small".into(),
            cells: vec![CellReport {
                id: "c".into(),
                metrics: vec![(
                    "mse_recover".into(),
                    Stats {
                        mean,
                        std: 0.03,
                        count: 3,
                    },
                )],
            }],
            grids: vec![],
            notes: vec![],
        }
    }

    #[test]
    fn snapshot_passes_its_own_report_and_roundtrips() {
        let r = report(0.5);
        let golden = Golden::from_report(&r);
        assert!(golden.compare(&r).is_empty());
        let parsed = Golden::parse(&golden.to_json().render()).unwrap();
        assert_eq!(parsed, golden);
        assert!(parsed.compare(&r).is_empty());
    }

    #[test]
    fn band_is_sem_scaled_with_floors() {
        let golden = Golden::from_report(&report(0.5));
        let sem = 0.03 / 3f64.sqrt();
        assert!((golden.entries[0].tol - 8.0 * sem).abs() < 1e-12);
        // Degenerate spread falls back to the relative floor.
        let mut r = report(2.0);
        r.cells[0].metrics[0].1.std = 0.0;
        let g2 = Golden::from_report(&r);
        assert!((g2.entries[0].tol - 2.0 * 1e-6).abs() < 1e-18);
        // Zero mean, zero spread: absolute floor.
        let mut r = report(0.0);
        r.cells[0].metrics[0].1.std = 0.0;
        assert_eq!(Golden::from_report(&r).entries[0].tol, 1e-12);
    }

    #[test]
    fn out_of_band_mean_is_flagged() {
        let golden = Golden::from_report(&report(0.5));
        let drifted = report(0.5 + 9.0 * 0.03 / 3f64.sqrt());
        let violations = golden.compare(&drifted);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("outside"));
        // Within-band drift passes.
        let ok = report(0.5 + 2.0 * 0.03 / 3f64.sqrt());
        assert!(golden.compare(&ok).is_empty());
    }

    #[test]
    fn metric_set_drift_is_flagged_both_ways() {
        let golden = Golden::from_report(&report(0.5));
        // Vanished metric.
        let mut gone = report(0.5);
        gone.cells[0].metrics.clear();
        assert!(golden.compare(&gone).iter().any(|v| v.contains("vanished")));
        // New metric.
        let mut extra = report(0.5);
        extra.cells[0].metrics.push((
            "fg_before".into(),
            Stats {
                mean: 1.0,
                std: 0.1,
                count: 3,
            },
        ));
        assert!(golden
            .compare(&extra)
            .iter()
            .any(|v| v.contains("not in golden")));
    }

    #[test]
    fn settings_drift_is_flagged() {
        let golden = Golden::from_report(&report(0.5));
        let mut r = report(0.5);
        r.trials = 5;
        r.scale_label = "paper".into();
        let violations = golden.compare(&r);
        assert!(violations.iter().any(|v| v.contains("settings drift")));
        assert!(violations.iter().any(|v| v.contains("scale drift")));
    }

    #[test]
    fn parse_rejects_malformed_goldens() {
        assert!(Golden::parse("not json").is_err());
        assert!(Golden::parse("{}").is_err());
        assert!(Golden::parse(
            "{\"figure\": \"x\", \"trials\": 1, \"seed\": 1, \"scale\": \"small\"}"
        )
        .is_err());
        assert!(Golden::parse(
            "{\"figure\": \"x\", \"trials\": 1, \"seed\": 1, \"scale\": \"small\", \
             \"cells\": [{\"cell\": \"c\"}]}"
        )
        .is_err());
    }
}

//! `bench_gate` — the perf-trajectory regression gate.
//!
//! Compares freshly emitted `BENCH_<suite>.json` files (written by the
//! vendored criterion harness when `LDP_BENCH_JSON_DIR` is set) against
//! the blessed trajectory checked in under `crates/bench/trajectory/`.
//!
//! ```text
//! LDP_BENCH_JSON_DIR=bench-out cargo bench --bench aggregation -p ldp-bench
//! cargo run --release -p ldp-bench --bin bench_gate -- bench-out
//! LDP_BLESS_BENCH=1 cargo run -p ldp-bench --bin bench_gate -- bench-out
//! ```
//!
//! The comparison works on `score` — median ns/iteration normalized by
//! the in-process calibration microbench — so it is stable across
//! machines of different absolute speeds. The gate is one-sided with a
//! generous band (`TOLERANCE`×): only genuine regressions fail; noise
//! and modest machine-to-machine variation do not. Large *improvements*
//! are reported as a hint to re-bless so the trajectory keeps ratcheting
//! downward. `LDP_BLESS_BENCH=1` rewrites the blessed files from the
//! emitted ones.

use ldp_common::{Json, LdpError, Result};
use std::path::{Path, PathBuf};

/// A case fails when its normalized score exceeds the blessed score by
/// more than this factor. Wide on purpose: scores already factor out
/// machine speed, but cache hierarchy and allocator behaviour still
/// differ between hosts; the gate exists to catch algorithmic
/// regressions (an O(n·d) loop sneaking back in is a 100×+ jump at
/// n=10⁶, far outside any band this wide).
const TOLERANCE: f64 = 4.0;

/// An improvement beyond this factor earns a re-bless hint.
const IMPROVEMENT_HINT: f64 = 4.0;

/// One `{id, median_ns, score}` entry of a trajectory file.
struct Case {
    id: String,
    median_ns: f64,
    score: f64,
}

fn blessed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("trajectory")
}

fn parse_cases(path: &Path) -> Result<Vec<Case>> {
    let text = std::fs::read_to_string(path)?;
    let json = Json::parse(&text)?;
    let cases = json
        .get("cases")
        .and_then(Json::as_array)
        .ok_or_else(|| LdpError::invalid(format!("{}: no `cases` array", path.display())))?;
    cases
        .iter()
        .map(|c| {
            let field = |key: &str| {
                c.get(key).ok_or_else(|| {
                    LdpError::invalid(format!("{}: case missing `{key}`", path.display()))
                })
            };
            Ok(Case {
                id: field("id")?
                    .as_str()
                    .ok_or_else(|| LdpError::invalid("`id` must be a string"))?
                    .to_string(),
                median_ns: field("median_ns")?
                    .as_f64()
                    .ok_or_else(|| LdpError::invalid("`median_ns` must be a number"))?,
                score: field("score")?
                    .as_f64()
                    .ok_or_else(|| LdpError::invalid("`score` must be a number"))?,
            })
        })
        .collect()
}

/// `BENCH_*.json` filenames in `dir`, sorted for stable output.
fn bench_files(dir: &Path) -> Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Rejects scores the ratio test would silently mishandle: a NaN
/// propagates to a never-failing comparison, and a zero/negative blessed
/// score used to be clamped to `1e-12`, turning any emitted value into an
/// astronomically "failing" — or, for a corrupt emitted zero, silently
/// passing — ratio. Either way the gate's verdict would be meaningless,
/// so both sides must be finite and strictly positive.
///
/// # Errors
/// [`LdpError::InvalidParameter`] naming the case and the bad value.
fn check_score(what: &str, id: &str, score: f64) -> Result<()> {
    if !score.is_finite() || score <= 0.0 {
        return Err(LdpError::invalid(format!(
            "{what} score for `{id}` is {score}, not a finite positive number — \
             re-bless the trajectory or fix the baseline before gating"
        )));
    }
    Ok(())
}

/// Compares one emitted suite against its blessed counterpart; returns
/// the number of failures.
fn gate_suite(name: &str, emitted_path: &Path, blessed_path: &Path) -> Result<usize> {
    let emitted = parse_cases(emitted_path)?;
    let blessed = parse_cases(blessed_path)?;
    let mut failures = 0usize;
    println!("{name}:");
    for b in &blessed {
        let Some(e) = emitted.iter().find(|e| e.id == b.id) else {
            println!("  FAIL {:<40} missing from the emitted run", b.id);
            failures += 1;
            continue;
        };
        check_score("blessed", &b.id, b.score)?;
        check_score("emitted", &e.id, e.score)?;
        let ratio = e.score / b.score;
        let (tag, note) = if ratio > TOLERANCE {
            failures += 1;
            ("FAIL", "")
        } else if ratio < 1.0 / IMPROVEMENT_HINT {
            ("  ok", "  ← big improvement; consider LDP_BLESS_BENCH=1")
        } else {
            ("  ok", "")
        };
        println!(
            "  {tag} {:<40} score {:>10.3} vs blessed {:>10.3}  ({ratio:.2}x, median {:.0} ns){note}",
            e.id, e.score, b.score, e.median_ns,
        );
    }
    for e in &emitted {
        if !blessed.iter().any(|b| b.id == e.id) {
            println!(
                "  FAIL {:<40} not in the blessed trajectory (bless with LDP_BLESS_BENCH=1)",
                e.id
            );
            failures += 1;
        }
    }
    Ok(failures)
}

/// Copies the emitted trajectory files into the blessed directory via
/// write_atomic — an interrupted bless must not leave a half-copied
/// trajectory the next gate run trusts. Returns the blessed paths.
fn bless(names: &[String], emitted_dir: &Path, blessed_dir: &Path) -> Result<Vec<PathBuf>> {
    std::fs::create_dir_all(blessed_dir)?;
    let mut written = Vec::with_capacity(names.len());
    for name in names {
        let contents = std::fs::read_to_string(emitted_dir.join(name))?;
        let target = blessed_dir.join(name);
        ldp_common::write_atomic(&target, &contents)?;
        written.push(target);
    }
    Ok(written)
}

fn main() -> Result<()> {
    let emitted_dir = PathBuf::from(std::env::args().nth(1).ok_or_else(|| {
        LdpError::invalid("usage: bench_gate <dir with emitted BENCH_*.json files>")
    })?);
    let names = bench_files(&emitted_dir)?;
    if names.is_empty() {
        return Err(LdpError::invalid(format!(
            "no BENCH_*.json files in {} — run the benches with LDP_BENCH_JSON_DIR set",
            emitted_dir.display()
        )));
    }

    let blessed = blessed_dir();
    if std::env::var("LDP_BLESS_BENCH").map(|v| v == "1") == Ok(true) {
        for name in bless(&names, &emitted_dir, &blessed)? {
            println!("blessed {}", name.display());
        }
        return Ok(());
    }

    let mut failures = 0usize;
    for name in &names {
        let blessed_path = blessed.join(name);
        if !blessed_path.is_file() {
            println!("FAIL {name}: no blessed trajectory (bless with LDP_BLESS_BENCH=1)");
            failures += 1;
            continue;
        }
        failures += gate_suite(name, &emitted_dir.join(name), &blessed_path)?;
    }
    // Coverage in the other direction: a blessed suite that stopped being
    // emitted is a silently-lost gate.
    for name in bench_files(&blessed)? {
        if !names.contains(&name) {
            println!("FAIL {name}: blessed but not emitted by this run");
            failures += 1;
        }
    }

    if failures > 0 {
        return Err(LdpError::invalid(format!(
            "perf trajectory: {failures} case(s) regressed beyond {TOLERANCE}x \
             (or coverage changed); re-bless with LDP_BLESS_BENCH=1 only if intentional"
        )));
    }
    println!("perf trajectory: all suites within {TOLERANCE}x of blessed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_is_crash_atomic_and_replaces_stale_files() {
        // Blessing goes through write_atomic, not fs::copy: after the
        // call each blessed file is the complete emitted document, any
        // stale previous bless is fully replaced, and no staging temp
        // file survives (the crash window is confined to temp names the
        // gate never reads).
        let base = std::env::temp_dir().join("ldp_bench_gate_bless_atomic_test");
        let _ = std::fs::remove_dir_all(&base);
        let emitted = base.join("emitted");
        let blessed = base.join("blessed");
        std::fs::create_dir_all(&emitted).unwrap();
        std::fs::create_dir_all(&blessed).unwrap();
        let doc = r#"{"cases": [{"id": "a", "median_ns": 10.0, "score": 1.0}]}"#;
        ldp_common::write_atomic(&emitted.join("BENCH_x.json"), doc).unwrap();
        ldp_common::write_atomic(&blessed.join("BENCH_x.json"), "{\"stale\": true}").unwrap();
        let written = bless(&["BENCH_x.json".to_string()], &emitted, &blessed).unwrap();
        assert_eq!(written, [blessed.join("BENCH_x.json")]);
        assert_eq!(std::fs::read_to_string(&written[0]).unwrap(), doc);
        let leftovers: Vec<_> = std::fs::read_dir(&blessed)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn check_score_accepts_positive_finite() {
        check_score("blessed", "case", 1e-9).unwrap();
        check_score("emitted", "case", 1234.5).unwrap();
    }

    #[test]
    fn check_score_rejects_every_degenerate_value() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = check_score("blessed", "aggregate/HR/n=1000000", bad)
                .expect_err(&format!("{bad} must be rejected"));
            let msg = err.to_string();
            assert!(
                msg.contains("aggregate/HR/n=1000000") && msg.contains("re-bless"),
                "unhelpful error: {msg}"
            );
        }
    }

    #[test]
    fn gate_suite_fails_loudly_on_corrupt_blessed_score() {
        // End-to-end through the file layer: a blessed score of 0 must
        // error out instead of silently passing (the old max(1e-12)
        // clamp made `0 / 0-clamped` look like a huge regression and a
        // corrupt emitted 0 vs healthy blessed look like a huge win).
        let dir = std::env::temp_dir().join("ldp_bench_gate_zero_score_test");
        std::fs::create_dir_all(&dir).unwrap();
        let blessed = dir.join("blessed.json");
        let emitted = dir.join("emitted.json");
        ldp_common::write_atomic(
            &blessed,
            r#"{"cases": [{"id": "a", "median_ns": 10.0, "score": 0.0}]}"#,
        )
        .unwrap();
        ldp_common::write_atomic(
            &emitted,
            r#"{"cases": [{"id": "a", "median_ns": 10.0, "score": 1.0}]}"#,
        )
        .unwrap();
        let err = gate_suite("suite", &emitted, &blessed).expect_err("must reject");
        assert!(err.to_string().contains("blessed score"), "{err}");
    }
}

//! Self-lint: plain `cargo test` runs the full rule catalog — both the
//! token-local rules and the cross-file P01/P02 passes — over the live
//! workspace, so a determinism/hygiene regression fails the tier-1 gate
//! locally. CI's `ldp-lint --deny --check-goldens` step is the same
//! check with a nicer log, and the SARIF round-trip test locks the
//! machine-readable emission to the text renderer's finding multiset.

use std::path::{Path, PathBuf};

use ldp_lint::{lint_workspace, render_sarif};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("crates/lint/../.. is the workspace root")
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let report = lint_workspace(&root).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ldp_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sarif_round_trips_the_text_finding_multiset() {
    // The SARIF document must parse as JSON (with the workspace's own
    // parser) and carry exactly the same (rule, path, line, col,
    // message) multiset as the text renderer — nothing added, nothing
    // dropped. Findings are injected artificially (the live tree lints
    // clean), plus the live report's multiset for good measure.
    let root = workspace_root();
    let mut findings = lint_workspace(&root)
        .expect("workspace scan succeeds")
        .findings;
    let fixture = "pub fn f() { Some(1).unwrap(); }\npub fn g() { println!(\"x\"); }\n";
    findings.extend(ldp_lint::lint_file("crates/fixturecrate/src/x.rs", fixture));
    assert!(
        !findings.is_empty(),
        "fixture injection must produce findings to round-trip"
    );
    let doc = ldp_common::json::Json::parse(&render_sarif(&findings))
        .expect("SARIF emission parses as JSON");
    let runs = doc.get("runs").and_then(|r| r.as_array()).expect("runs[]");
    assert_eq!(runs.len(), 1);
    let results = runs[0]
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results[]");
    let mut from_sarif: Vec<(String, String, u32, u32, String)> = results
        .iter()
        .map(|r| {
            let loc = &r
                .get("locations")
                .and_then(|l| l.as_array())
                .expect("locations")[0];
            let phys = loc.get("physicalLocation").expect("physicalLocation");
            let region = phys.get("region").expect("region");
            (
                r.get("ruleId")
                    .and_then(|v| v.as_str())
                    .expect("ruleId")
                    .to_string(),
                phys.get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(|v| v.as_str())
                    .expect("uri")
                    .to_string(),
                region
                    .get("startLine")
                    .and_then(ldp_common::json::Json::as_f64)
                    .expect("startLine") as u32,
                region
                    .get("startColumn")
                    .and_then(ldp_common::json::Json::as_f64)
                    .expect("startColumn") as u32,
                r.get("message")
                    .and_then(|m| m.get("text"))
                    .and_then(|v| v.as_str())
                    .expect("message.text")
                    .to_string(),
            )
        })
        .collect();
    let mut from_text: Vec<(String, String, u32, u32, String)> = findings
        .iter()
        .map(|f| {
            (
                f.rule.id().to_string(),
                f.path.clone(),
                f.line,
                f.col,
                f.message.clone(),
            )
        })
        .collect();
    from_sarif.sort();
    from_text.sort();
    assert_eq!(from_sarif, from_text, "SARIF and text diverge");
    // The rule catalog rides along in full.
    let rules = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(|r| r.as_array())
        .expect("driver.rules[]");
    assert_eq!(rules.len(), ldp_lint::RuleId::ALL.len());
}

#[test]
fn blessed_goldens_match_the_manifest() {
    // The live tree's golden.manifest must agree with every blessed
    // artifact — CI's `ldp-lint --check-goldens` is the same check. A
    // failure here means a golden or trajectory file changed without an
    // explicit `ldp-lint --bless-goldens`.
    let root = workspace_root();
    let errors = ldp_lint::check_goldens(&root).expect("golden scan succeeds");
    assert!(errors.is_empty(), "golden drift:\n{}", errors.join("\n"));
}

#[test]
fn walker_covers_every_crate_and_skips_fixtures_and_vendor() {
    let root = workspace_root();
    let files = ldp_lint::collect_files(&root).expect("walk succeeds");
    let rels: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(&root)
                .expect("walked file is under root")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    for crate_root in [
        "src/lib.rs",
        "crates/common/src/lib.rs",
        "crates/protocols/src/lib.rs",
        "crates/attacks/src/lib.rs",
        "crates/datasets/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/kv/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/bench/src/bin/bench_gate.rs",
        "crates/lint/src/lib.rs",
    ] {
        assert!(
            rels.contains(&crate_root.to_string()),
            "missing {crate_root}"
        );
    }
    assert!(
        !rels
            .iter()
            .any(|r| r.contains("fixtures/") || r.starts_with("vendor/")),
        "walker must skip fixtures/ and vendor/"
    );
}

#[test]
fn crate_ident_map_reads_the_live_manifests() {
    // The cross-file resolver depends on `crates/<dir>` → lib ident
    // mapping being right for the irregular cases (crates/core builds
    // `ldprecover`, the root package is `ldprecover-repro`).
    let root = workspace_root();
    let map = ldp_lint::crate_ident_map(&root);
    let lookup = |dir: &str| {
        map.iter()
            .find(|(d, _)| d == dir)
            .map(|(_, i)| i.as_str())
            .unwrap_or("<missing>")
            .to_string()
    };
    assert_eq!(lookup("common"), "ldp_common");
    assert_eq!(lookup("sim"), "ldp_sim");
    assert_eq!(lookup("core"), "ldprecover");
    assert!(
        ldp_lint::root_package_ident(&root).starts_with("ldprecover"),
        "root package ident should come from the root manifest"
    );
}

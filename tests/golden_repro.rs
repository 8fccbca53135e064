//! Golden statistical regression gates for the reproduction catalog.
//!
//! Every figure/table scenario runs at the pinned `small` preset
//! (per-dataset ~1.2k-user fractions, 5 trials, the default master seed)
//! and every cell metric must land inside its checked-in tolerance band
//! (`tests/golden/<figure>.json`: blessed mean ± a band derived from the
//! SEM at bless time — see `ldp_sim::scenario::golden`).
//!
//! The whole pipeline is deterministic per seed, so an unchanged tree
//! reproduces the blessed means exactly; the bands only absorb legitimate
//! RNG-stream or float-association refactors. Regeneration is deliberate:
//!
//! ```text
//! LDP_BLESS_GOLDENS=1 cargo test --test golden_repro
//! ```
//!
//! then review the diff like any other code change.

use ldp_datasets::ScalePreset;
use ldp_sim::scenario::{catalog, run_scenario, Golden, RunScale};
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.json"))
}

fn check(id: &str) {
    let scenario = catalog::scenario(id).expect("catalog scenario");
    let report =
        run_scenario(&scenario, &RunScale::preset(ScalePreset::Small)).expect("scenario run");
    let path = golden_path(id);

    if std::env::var_os("LDP_BLESS_GOLDENS").is_some() {
        let golden = Golden::from_report(&report);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        ldp_common::write_atomic(&path, &golden.to_json().render()).expect("write golden");
        // A freshly blessed golden must accept the report it came from.
        assert!(golden.compare(&report).is_empty(), "{id}: bless is broken");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing/unreadable golden {}: {e}\n\
             regenerate deliberately with: LDP_BLESS_GOLDENS=1 cargo test --test golden_repro",
            path.display()
        )
    });
    let golden = Golden::parse(&text).expect("parse golden");
    let violations = golden.compare(&report);
    assert!(
        violations.is_empty(),
        "{id}: {} golden violation(s):\n  {}\n\
         if this change is intentional, re-bless with: \
         LDP_BLESS_GOLDENS=1 cargo test --test golden_repro",
        violations.len(),
        violations.join("\n  ")
    );
}

macro_rules! golden_tests {
    ($($name:ident => $figure:literal),* $(,)?) => {$(
        #[test]
        fn $name() {
            check($figure);
        }
    )*};
}

golden_tests! {
    fig3_matches_golden => "fig3",
    fig4_matches_golden => "fig4",
    fig5_matches_golden => "fig5",
    fig6_matches_golden => "fig6",
    fig7_matches_golden => "fig7",
    table1_matches_golden => "table1",
    fig8_matches_golden => "fig8",
    fig9_matches_golden => "fig9",
    fig10_matches_golden => "fig10",
    ablations_matches_golden => "ablations",
    kv_extension_matches_golden => "kv_extension",
    stream_online_matches_golden => "stream_online",
    stream_windowed_matches_golden => "stream_windowed",
    defense_arms_matches_golden => "defense_arms",
}

#[test]
fn every_catalog_figure_has_a_golden_test() {
    // Adding a figure to the catalog without gating it here should fail.
    assert_eq!(catalog::FIGURE_IDS.len(), 14);
    for id in catalog::FIGURE_IDS {
        assert!(
            std::env::var_os("LDP_BLESS_GOLDENS").is_some() || golden_path(id).exists(),
            "no golden checked in for catalog figure '{id}'"
        );
    }
}

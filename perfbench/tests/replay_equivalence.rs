//! The traced replay must reproduce the library bit for bit: for all
//! five protocols and every workload's arm set, the per-layer trial
//! replay equals `run_trial_with` (arm keys and frequency vectors), the
//! η-sweep replay equals `run_eta_sweep`, and the stream replay
//! (`shard_epoch_delta` per shard → `apply_epoch_deltas`) equals
//! `StreamEngine::step`'s trajectory. Small scale; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use ldp_attacks::AttackKind;
use ldp_datasets::DatasetKind;
use ldp_perfbench::replay;
use ldp_perfbench::trace::Tracer;
use ldp_perfbench::workload::{
    batched_cells, report_arm_cells, run_cell, run_inproc, stream_spec, CellOutput, Sizing,
    TrialCell,
};
use ldp_protocols::ProtocolKind;
use ldp_sim::stream::{shard_epoch_delta, WindowMode};
use ldp_sim::{StreamEngine, StreamSpec, TrialResult};

const SMALL: Sizing = Sizing {
    scale: 0.01,
    report_trials: 2,
    batched_trials: 2,
    shards: 4,
    users_per_epoch: 20_000,
    epochs: 6,
};

fn assert_trials_equal(label: &str, got: &[TrialResult], want: &[TrialResult]) {
    assert_eq!(got.len(), want.len(), "{label}: trial count");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        let keys = |r: &TrialResult| r.arms.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(g), keys(w), "{label} trial {t}: arm keys");
        assert_eq!(g.arms, w.arms, "{label} trial {t}: arm outputs");
        assert_eq!(
            g.degenerate, w.degenerate,
            "{label} trial {t}: degenerate arms"
        );
        assert_eq!(g.true_freqs, w.true_freqs, "{label} trial {t}: truth");
        assert_eq!(g.genuine, w.genuine, "{label} trial {t}: genuine");
        assert_eq!(g.poisoned, w.poisoned, "{label} trial {t}: poisoned");
        assert_eq!(
            g.malicious_true, w.malicious_true,
            "{label} trial {t}: malicious"
        );
        assert_eq!(
            g.star_targets, w.star_targets,
            "{label} trial {t}: star targets"
        );
        assert_eq!(
            g.attack_targets, w.attack_targets,
            "{label} trial {t}: targets"
        );
    }
}

fn assert_replay_matches(cell: &TrialCell) {
    let mut t = Tracer::new(Instant::now());
    let replayed = replay::cell(cell, &mut t).expect("replay runs");
    let library = run_cell(cell).expect("library runs");
    match (&replayed, &library) {
        (CellOutput::Trials(got), CellOutput::Trials(want)) => {
            assert_trials_equal(&cell.label, got, want);
        }
        (CellOutput::Sweep(got), CellOutput::Sweep(want)) => {
            assert_eq!(got, want, "{}: sweep summaries", cell.label);
        }
        _ => panic!(
            "{}: replay and library disagree on the cell kind",
            cell.label
        ),
    }
    assert!(
        !t.durations_ms("runner.trial").is_empty(),
        "{}: the replay recorded its trials",
        cell.label
    );
}

/// Every workload cell shape with its protocol swapped through all five.
fn cells_over_protocols() -> Vec<TrialCell> {
    let mut cells = Vec::new();
    for (i, protocol) in ProtocolKind::EXTENDED.into_iter().enumerate() {
        let seed = 40 + i as u64;
        let mut shapes = report_arm_cells(seed, SMALL).expect("cells build");
        shapes.extend(
            batched_cells(seed, SMALL)
                .into_iter()
                .filter(|c| c.config.dataset == DatasetKind::Ipums)
                .filter(|c| c.config.protocol == protocol || c.etas.is_some()),
        );
        for mut cell in shapes {
            if cell.etas.is_none() {
                cell.config.protocol = protocol;
            }
            cell.label = format!("{} as {protocol}", cell.label);
            cells.push(cell);
        }
    }
    cells
}

#[test]
fn trial_replay_is_bit_identical_for_every_protocol_and_arm_set() {
    for cell in cells_over_protocols() {
        assert_replay_matches(&cell);
    }
}

#[test]
fn replay_records_the_layers_it_passes_through() {
    let cells = report_arm_cells(7, SMALL).expect("cells build");
    let mut t = Tracer::new(Instant::now());
    for cell in &cells {
        replay::cell(cell, &mut t).expect("replay runs");
    }
    for span in [
        "datasets.generate",
        "protocols.perturb_accumulate",
        "attacks.craft",
        "protocols.malicious_fold",
        "core.recover",
        "core.recover_star",
        "core.detection",
        "core.kmeans",
        "core.recover_km",
        "pipeline.aggregation",
        "pipeline.recoveries",
    ] {
        assert!(!t.durations_ms(span).is_empty(), "no '{span}' span");
    }
    assert!(t.durations_ms("protocols.batch_sample").is_empty());
    let materialized: usize = cells.iter().map(TrialCell::users).sum();
    assert_eq!(
        t.counter("datasets.users_materialized") as usize,
        materialized
    );
    assert!(t.counter("protocols.reports_retained") > t.counter("datasets.users_materialized"));
}

fn replay_stream(spec: StreamSpec) -> StreamEngine {
    let mut t = Tracer::new(Instant::now());
    let mut engine = StreamEngine::new(spec).expect("spec is valid");
    while !engine.is_complete() {
        let epoch = engine.epochs_done();
        replay::epoch(&mut engine, &mut t, |deltas, _| {
            for (shard, delta) in deltas {
                assert_eq!(
                    &shard_epoch_delta(&spec, *shard, epoch).expect("library delta"),
                    delta,
                    "shard {shard} epoch {epoch}"
                );
            }
            Ok(())
        })
        .expect("epoch replays");
    }
    assert_eq!(t.durations_ms("stream.apply").len(), spec.epochs);
    engine
}

#[test]
fn stream_replay_matches_step_for_every_protocol_and_window() {
    for protocol in ProtocolKind::EXTENDED {
        for window in [WindowMode::Sliding(3), WindowMode::Cumulative] {
            for attack in [AttackKind::Adaptive, AttackKind::Mga { r: 10 }] {
                let spec = StreamSpec {
                    protocol,
                    window,
                    attack: Some(attack),
                    ..stream_spec(11, SMALL)
                };
                let (library, _) = run_inproc(spec).expect("library stream runs");
                let replayed = replay_stream(spec);
                assert_eq!(
                    replayed.trajectory(),
                    library.trajectory(),
                    "{protocol} {window:?} {attack:?}: trajectory"
                );
                assert_eq!(replayed, library, "{protocol} {window:?} {attack:?}: state");
            }
        }
    }
}

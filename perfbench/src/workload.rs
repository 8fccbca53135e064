//! The workloads: their inputs, the library calls that run them, and the
//! correctness checks on what those calls return.
//!
//! Everything here goes through the public API exactly as a user of the
//! library would: `map_trials_with` + `run_trial_with` (the body of
//! `run_experiment`, kept so the trial results can be checked),
//! `run_eta_sweep`, `StreamEngine::step` and `coordinator::drive_with`.

use std::path::Path;
use std::time::{Duration, Instant};

use ldp_attacks::AttackKind;
use ldp_common::rng::{derive_seed, rng_from_seed};
use ldp_common::vecmath::is_probability_vector;
use ldp_common::{LdpError, Result};
use ldp_datasets::DatasetKind;
use ldp_protocols::ProtocolKind;
use ldp_sim::metrics::{mse, Stats};
use ldp_sim::pipeline::{run_trial_with, TrialArena};
use ldp_sim::runner::map_trials_with;
use ldp_sim::stream::coordinator::{drive_with, CoordinatorConfig, WorkerLauncher};
use ldp_sim::stream::WindowMode;
use ldp_sim::{
    run_eta_sweep, ArmKind, ArmSet, ExperimentConfig, ExperimentResult, PipelineOptions,
    StreamEngine, StreamSpec, TrialResult,
};
use ldprecover::KMeansDefense;

use crate::digest::Digest;

/// Tolerance of the probability-vector check (the library's own tests
/// use the same).
const PROB_TOL: f64 = 1e-9;

/// The η grid of the sweep cell (the paper's Fig. 5/6 grid).
pub const ETA_GRID: [f64; 5] = [0.01, 0.05, 0.1, 0.2, 0.4];

/// Worker processes of the traced stream run.
const STREAM_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, report-consuming arms (Detection, k-means): the
    /// per-user aggregation path.
    PaperReportArms,
    /// Paper scale, count-only arms: the batched `O(d)` path.
    PaperBatched,
    /// The in-process sharded stream engine.
    StreamInproc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperReportArms,
        Workload::PaperBatched,
        Workload::StreamInproc,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperReportArms => "paper_report_arms",
            Workload::PaperBatched => "paper_batched",
            Workload::StreamInproc => "stream_inproc",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| LdpError::invalid(format!("unknown workload '{name}'")))
    }

    /// Whether the workload is a stream (epochs) rather than trial cells.
    pub fn is_stream(self) -> bool {
        self == Workload::StreamInproc
    }
}

/// Input sizes. [`Sizing::PAPER`] is what the benchmark measures; the
/// equivalence tests shrink everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Population fraction of every trial cell.
    pub scale: f64,
    /// Trials per `paper_report_arms` cell.
    pub report_trials: usize,
    /// Trials per `paper_batched` cell.
    pub batched_trials: usize,
    /// Stream shards.
    pub shards: usize,
    /// Genuine users per stream epoch.
    pub users_per_epoch: usize,
    /// Epochs per stream pass.
    pub epochs: usize,
}

impl Sizing {
    /// Paper scale: full populations, 10⁶ users per epoch over 16 shards.
    pub const PAPER: Sizing = Sizing {
        scale: 1.0,
        report_trials: 2,
        batched_trials: 10,
        shards: 16,
        users_per_epoch: 1_000_000,
        epochs: 250,
    };

    /// The warm-up sizing the trial workloads run during set-up: one
    /// trial per cell at 1 % scale. One trial runs on one thread, so the
    /// set-up time is work, not thread start-up latency.
    pub fn warm_up(self) -> Sizing {
        Sizing {
            scale: 0.01,
            report_trials: 1,
            batched_trials: 1,
            ..self
        }
    }
}

/// One experiment cell of a trial workload.
#[derive(Debug, Clone)]
pub struct TrialCell {
    /// Human-readable label, e.g. `"fire/OLH/AA"`.
    pub label: String,
    /// The experiment configuration (its seed is derived per cell).
    pub config: ExperimentConfig,
    /// Arms and aggregation options.
    pub options: PipelineOptions,
    /// `Some(ηs)` for the `run_eta_sweep` cell.
    pub etas: Option<Vec<f64>>,
}

fn cell(
    seed: u64,
    index: usize,
    sizing: Sizing,
    trials: usize,
    (dataset, protocol, attack): (DatasetKind, ProtocolKind, AttackKind),
    options: PipelineOptions,
) -> TrialCell {
    let mut config = ExperimentConfig::paper_default(dataset, protocol, Some(attack));
    config.scale = sizing.scale;
    config.trials = trials;
    config.seed = derive_seed(seed, index as u64);
    TrialCell {
        label: format!("{}/{}", dataset.name(), config.label()),
        config,
        options,
        etas: None,
    }
}

/// The `paper_report_arms` cells: Fire MGA-OUE and Fire AA-OLH with the
/// full comparison (Detection), and IPUMS MGA-IPA-OUE with the k-means
/// arms at G = 20, ξ = 0.9.
///
/// # Errors
/// Propagates k-means parameter validation.
pub fn report_arm_cells(seed: u64, sizing: Sizing) -> Result<Vec<TrialCell>> {
    let trials = sizing.report_trials;
    let kmeans = PipelineOptions {
        arms: ArmSet::new([ArmKind::Recover, ArmKind::Kmeans, ArmKind::RecoverKm]),
        kmeans: KMeansDefense::new(20, 0.9)?,
        ..PipelineOptions::default()
    };
    Ok(vec![
        cell(
            seed,
            0,
            sizing,
            trials,
            (
                DatasetKind::Fire,
                ProtocolKind::Oue,
                AttackKind::Mga { r: 10 },
            ),
            PipelineOptions::full_comparison(),
        ),
        cell(
            seed,
            1,
            sizing,
            trials,
            (DatasetKind::Fire, ProtocolKind::Olh, AttackKind::Adaptive),
            PipelineOptions::full_comparison(),
        ),
        cell(
            seed,
            2,
            sizing,
            trials,
            (
                DatasetKind::Ipums,
                ProtocolKind::Oue,
                AttackKind::MgaIpa { r: 10 },
            ),
            kmeans,
        ),
    ])
}

/// The count-only arm set of `paper_batched`.
pub fn batched_arms() -> PipelineOptions {
    PipelineOptions::with_arms(ArmSet::new([
        ArmKind::Recover,
        ArmKind::RecoverStar,
        ArmKind::NormSub,
        ArmKind::BaseCut,
    ]))
}

/// The `paper_batched` cells: all five protocols × {IPUMS, Fire} ×
/// {AA, MGA r = 10}, then one η-sweep cell (IPUMS OUE AA over
/// [`ETA_GRID`]).
pub fn batched_cells(seed: u64, sizing: Sizing) -> Vec<TrialCell> {
    let mut cells = Vec::new();
    for dataset in DatasetKind::ALL {
        for protocol in ProtocolKind::EXTENDED {
            for attack in [AttackKind::Adaptive, AttackKind::Mga { r: 10 }] {
                let index = cells.len();
                cells.push(cell(
                    seed,
                    index,
                    sizing,
                    sizing.batched_trials,
                    (dataset, protocol, attack),
                    batched_arms(),
                ));
            }
        }
    }
    let mut sweep = cell(
        seed,
        cells.len(),
        sizing,
        sizing.batched_trials,
        (DatasetKind::Ipums, ProtocolKind::Oue, AttackKind::Adaptive),
        batched_arms(),
    );
    sweep.label.push_str("/eta-sweep");
    sweep.etas = Some(ETA_GRID.to_vec());
    cells.push(sweep);
    cells
}

/// The cells of a trial workload.
///
/// # Errors
/// [`LdpError::InvalidParameter`] for a stream workload; otherwise as
/// [`report_arm_cells`].
pub fn trial_cells(workload: Workload, seed: u64, sizing: Sizing) -> Result<Vec<TrialCell>> {
    match workload {
        Workload::PaperReportArms => report_arm_cells(seed, sizing),
        Workload::PaperBatched => Ok(batched_cells(seed, sizing)),
        _ => Err(LdpError::invalid(format!(
            "{} is not a trial workload",
            workload.name()
        ))),
    }
}

/// Threads a batch of `jobs` runs on: `min(available cores, jobs)`, the
/// library's own rule.
pub fn threads_for(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs)
        .max(1)
}

impl TrialCell {
    /// Genuine users one run of the cell aggregates: n × trials.
    pub fn users(&self) -> usize {
        let n = (self.config.dataset.total_users() as f64 * self.config.scale).ceil() as usize;
        n * self.config.trials
    }

    /// Whether the cell's attack is one LDPRecover claims to undo: an
    /// output-poisoning attack, whose crafted reports bypass the
    /// protocol. Input poisoning (MGA-IPA) runs the protocol honestly on
    /// chosen inputs and moves the estimate by less than the LDP noise
    /// (poisoned MSE ≈ genuine MSE), so no MSE ordering is claimed there;
    /// its cell is about LDPRecover-KM against k-means.
    pub fn claims_recovery(&self) -> bool {
        !matches!(self.config.attack, Some(AttackKind::MgaIpa { .. }) | None)
    }

    /// Operations one run of the cell stands for: one per trial, or per
    /// (trial, η) for the sweep cell.
    pub fn operations(&self) -> usize {
        self.config.trials * self.etas.as_ref().map_or(1, Vec::len)
    }
}

/// What one cell returns through the library.
#[derive(Debug, Clone)]
pub enum CellOutput {
    /// Per-trial results, in trial order.
    Trials(Vec<TrialResult>),
    /// The η-sweep cell's summaries, one per η.
    Sweep(SweepSummary),
}

/// Runs one cell through the library: `run_eta_sweep` for the sweep
/// cell; otherwise `run_experiment`'s own trial fan-out
/// (`map_trials_with` + `run_trial_with` with per-trial derived seeds),
/// which keeps the per-trial results for the checks.
///
/// # Errors
/// Propagates trial failures.
pub fn run_cell(cell: &TrialCell) -> Result<CellOutput> {
    let config = &cell.config;
    if let Some(etas) = &cell.etas {
        return run_eta_sweep(config, etas, &cell.options)
            .map(|results| CellOutput::Sweep(SweepSummary::from_results(&results)));
    }
    config.validate()?;
    map_trials_with(
        config.trials,
        threads_for(config.trials),
        TrialArena::new,
        |trial, arena| {
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            run_trial_with(config, &cell.options, &mut rng, arena)
        },
    )
    .map(CellOutput::Trials)
}

/// One η of a sweep: the part of its result the traced replay can
/// rebuild from its own trial results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// MSE of the genuine estimate.
    pub genuine: Stats,
    /// MSE of the poisoned estimate.
    pub before: Stats,
    /// Every arm's MSE, in arm order.
    pub arms: Vec<(String, Stats)>,
}

/// An η-sweep cell's result, one point per η.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary(pub Vec<SweepPoint>);

impl SweepSummary {
    /// From the library's sweep results.
    pub fn from_results(results: &[ExperimentResult]) -> Self {
        SweepSummary(
            results
                .iter()
                .map(|r| SweepPoint {
                    genuine: r.mse_genuine,
                    before: r.mse_before,
                    arms: r
                        .arms
                        .iter()
                        .filter_map(|(key, stats)| stats.mse.map(|s| (key.clone(), s)))
                        .collect(),
                })
                .collect(),
        )
    }

    /// From per-η trial results (outer: η, inner: trials in order), with
    /// the runner's summary rules: per-trial MSEs folded in trial order,
    /// arms in first-seen order.
    pub fn from_trials(per_eta: &[Vec<TrialResult>]) -> Self {
        SweepSummary(
            per_eta
                .iter()
                .map(|trials| {
                    let of = |f: &dyn Fn(&TrialResult) -> f64| {
                        Stats::from_values(&trials.iter().map(f).collect::<Vec<_>>())
                    };
                    let mut arms: Vec<(String, Vec<f64>)> = Vec::new();
                    for r in trials {
                        for (key, out) in &r.arms {
                            let value = mse(&out.frequencies, &r.true_freqs);
                            match arms.iter_mut().find(|(k, _)| k == key) {
                                Some((_, values)) => values.push(value),
                                None => arms.push((key.clone(), vec![value])),
                            }
                        }
                    }
                    SweepPoint {
                        genuine: of(&|r| mse(&r.genuine, &r.true_freqs)),
                        before: of(&|r| mse(&r.poisoned, &r.true_freqs)),
                        arms: arms
                            .into_iter()
                            .map(|(key, values)| (key, Stats::from_values(&values)))
                            .collect(),
                    }
                })
                .collect(),
        )
    }

    /// Hashes the summary.
    pub fn digest(&self, d: &mut Digest) {
        for point in &self.0 {
            d.stats(&point.genuine);
            d.stats(&point.before);
            for (key, stats) in &point.arms {
                d.str(key);
                d.stats(stats);
            }
        }
    }
}

impl CellOutput {
    /// Hashes the output bit for bit.
    pub fn digest(&self, d: &mut Digest) {
        match self {
            CellOutput::Trials(trials) => trials.iter().for_each(|r| d.trial(r)),
            CellOutput::Sweep(summary) => summary.digest(d),
        }
    }

    /// Operations of `cell` that fail a correctness check, with a reason
    /// each.
    pub fn failures(&self, cell: &TrialCell) -> Vec<String> {
        let label = &cell.label;
        match self {
            CellOutput::Trials(trials) => trials
                .iter()
                .enumerate()
                .filter_map(|(t, r)| check_trial(r).map(|why| format!("{label} trial {t}: {why}")))
                .chain(
                    cell.claims_recovery()
                        .then(|| check_cell_mse(trials))
                        .flatten()
                        .map(|why| format!("{label}: {why}")),
                )
                .collect(),
            CellOutput::Sweep(summary) => summary
                .0
                .iter()
                .enumerate()
                .filter_map(|(i, point)| {
                    check_sweep_point(point).map(|why| format!("{label} eta #{i}: {why}"))
                })
                .collect(),
        }
    }
}

/// Arms whose output is a raw debiased frequency estimate rather than a
/// point on the simplex: Detection re-estimates from the surviving
/// reports and k-means from the majority cluster, and neither refines,
/// so negative entries (and, for OUE/OLH, a sum off 1) are expected of
/// them.
pub const RAW_ESTIMATE_ARMS: [&str; 2] = ["detection", "kmeans"];

/// Checks one trial's arm outputs: each is NaN-free and of the domain's
/// length, and a probability vector unless the arm is in
/// [`RAW_ESTIMATE_ARMS`]. `None` when it passes.
pub fn check_trial(r: &TrialResult) -> Option<String> {
    for (key, out) in &r.arms {
        let v = &out.frequencies;
        if v.len() != r.true_freqs.len() || !v.iter().all(|x| x.is_finite()) {
            return Some(format!("arm '{key}' output is not a finite estimate"));
        }
        if !RAW_ESTIMATE_ARMS.contains(&key.as_str()) && !is_probability_vector(v, PROB_TOL) {
            return Some(format!("arm '{key}' output is not a probability vector"));
        }
    }
    None
}

/// Checks a cell: `recover` beats the poisoned estimate on MSE averaged
/// over the cell's trials (single trials may lose to noise when an
/// attack barely moves the estimate). `None` when it passes.
pub fn check_cell_mse(trials: &[TrialResult]) -> Option<String> {
    let mean = |f: &dyn Fn(&TrialResult) -> Option<f64>| {
        let values: Vec<f64> = trials.iter().filter_map(f).collect();
        (values.len() == trials.len()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    };
    let before = mean(&|r| Some(mse(&r.poisoned, &r.true_freqs)))?;
    let Some(after) = mean(&|r| r.recovered().map(|v| mse(v, &r.true_freqs))) else {
        return Some("the recover arm is missing from a trial".into());
    };
    (after.is_nan() || after >= before)
        .then(|| format!("recover mean MSE {after:e} is not below the poisoned {before:e}"))
}

/// Checks one η of the sweep: finite summaries, and `recover` beats the
/// poisoned estimate on mean MSE.
pub fn check_sweep_point(point: &SweepPoint) -> Option<String> {
    if point.arms.iter().any(|(_, s)| !s.mean.is_finite()) {
        return Some("non-finite arm MSE".into());
    }
    let Some((_, recover)) = point.arms.iter().find(|(key, _)| key == "recover") else {
        return Some("no recover arm summary".into());
    };
    let (after, before) = (recover.mean, point.before.mean);
    (after.is_nan() || after >= before)
        .then(|| format!("recover mean MSE {after:e} is not below the poisoned {before:e}"))
}

/// The stream spec both stream workloads run: Fire, OUE, ε = 0.5, AA at
/// β = 0.05, η = 0.2, a sliding window of 8 epochs.
pub fn stream_spec(seed: u64, sizing: Sizing) -> StreamSpec {
    StreamSpec {
        dataset: DatasetKind::Fire,
        protocol: ProtocolKind::Oue,
        epsilon: 0.5,
        attack: Some(AttackKind::Adaptive),
        beta: 0.05,
        eta: 0.2,
        shards: sizing.shards,
        epochs: sizing.epochs,
        users_per_epoch: sizing.users_per_epoch,
        seed,
        window: WindowMode::Sliding(8),
    }
}

/// Runs a stream in process with `StreamEngine::step`, timing each epoch.
///
/// # Errors
/// Propagates engine failures.
pub fn run_inproc(spec: StreamSpec) -> Result<(StreamEngine, Vec<f64>)> {
    let mut engine = StreamEngine::new(spec)?;
    let mut epoch_ms = Vec::with_capacity(spec.epochs);
    while !engine.is_complete() {
        let start = Instant::now();
        engine.step()?;
        epoch_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((engine, epoch_ms))
}

/// A stream driven through worker processes.
#[derive(Debug)]
pub struct WorkerRun {
    /// The engine after the last driven epoch.
    pub engine: StreamEngine,
    /// Worker spawn plus the first epoch, in ms.
    pub first_epoch_ms: f64,
    /// Time between later epoch boundaries, in ms.
    pub epoch_ms: Vec<f64>,
}

/// Drives a whole stream through [`STREAM_WORKERS`] `ldp stream-worker`
/// processes (`coordinator::drive_with`), timing epoch boundaries with
/// its `after_epoch` hook; the first epoch is timed from the call, so it
/// includes the worker spawn. The coordinator stops and reaps every
/// worker before this returns.
///
/// # Errors
/// Propagates coordinator and engine failures.
pub fn run_workers(spec: StreamSpec, ldp: &Path) -> Result<WorkerRun> {
    let start = Instant::now();
    let mut engine = StreamEngine::new(spec)?;
    let launcher = WorkerLauncher::for_binary(ldp.to_path_buf());
    let config = CoordinatorConfig {
        workers: STREAM_WORKERS,
        timeout: Duration::from_secs(60),
        ..CoordinatorConfig::default()
    };
    let mut marks = Vec::with_capacity(spec.epochs + 1);
    marks.push(start);
    drive_with(&mut engine, spec.epochs, &launcher, &config, |_| {
        marks.push(Instant::now());
        Ok(())
    })?;
    let ms: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    let (first, rest) = ms
        .split_first()
        .ok_or_else(|| LdpError::invalid("the coordinator drove no epoch"))?;
    Ok(WorkerRun {
        engine,
        first_epoch_ms: *first,
        epoch_ms: rest.to_vec(),
    })
}

/// Digest of a stream: its whole trajectory and final recovery snapshot.
///
/// # Errors
/// Propagates [`StreamEngine::recovery_snapshot`].
pub fn stream_digest(engine: &StreamEngine) -> Result<u64> {
    let mut d = Digest::default();
    engine.trajectory().iter().for_each(|p| d.epoch(p));
    d.snapshot(&engine.recovery_snapshot()?);
    Ok(d.value())
}

/// Epochs of a stream that fail a check: non-finite trajectory MSEs, or
/// (on the last epoch) a recovered estimate off the simplex.
///
/// # Errors
/// Propagates [`StreamEngine::recovery_snapshot`].
pub fn stream_failures(engine: &StreamEngine) -> Result<Vec<String>> {
    let mut failures: Vec<String> = engine
        .trajectory()
        .iter()
        .filter(|p| {
            ![p.mse_before, p.mse_recovered, p.mse_genuine]
                .iter()
                .all(|x| x.is_finite())
        })
        .map(|p| format!("epoch {}: non-finite MSE", p.epoch))
        .collect();
    if !is_probability_vector(&engine.recovery_snapshot()?.recovered, PROB_TOL) {
        failures.push("final recovered estimate is not a probability vector".into());
    }
    Ok(failures)
}

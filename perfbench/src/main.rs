//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--ldp PATH]
//! ```
//!
//! A run sets up several times (the median is `setup_s`), then repeats
//! the workload's pass — a fixed, seed-determined batch of work — until
//! `--seconds` have passed (at least twice, so repeats can be compared).
//! `--trace 0` reports the end-to-end metrics of the library calls;
//! `--trace 1` runs the library pass once, then replays the pass from
//! the layers' public functions under spans and reports per-layer
//! metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--ldp` names the
//! `ldp` binary the traced stream run spawns as its workers.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ldp_common::{LdpError, Result};
use ldp_perfbench::digest::Digest;
use ldp_perfbench::measure::{epoch_profile, median, peak_rss_mb, quantile, Tally};
use ldp_perfbench::trace::Tracer;
use ldp_perfbench::workload::{
    run_cell, run_inproc, run_workers, stream_digest, stream_failures, stream_spec, trial_cells,
    Sizing, TrialCell, Workload,
};
use ldp_perfbench::{replay, workload};
use ldp_sim::stream::transport::{read_frame, write_frame, WorkerResponse};
use ldp_sim::stream::{shard_epoch_delta, ShardDelta};
use ldp_sim::{StreamEngine, StreamSpec};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Epochs of the one-user-per-shard probe behind `stream.delta_fixed_us`
/// (each epoch runs every shard once).
const PROBE_EPOCHS: usize = 100;

/// The per-layer metrics, with units, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer the workload never calls
/// reads 0.
const LAYER_METRICS: [(&str, &str); 28] = [
    ("datasets.generate_ms", "ms"),
    ("datasets.users_materialized", "count"),
    ("protocols.perturb_accumulate_ms", "ms"),
    ("protocols.reports_retained", "count"),
    ("protocols.batch_sample_ms", "ms"),
    ("protocols.malicious_fold_ms", "ms"),
    ("attacks.craft_ms", "ms"),
    ("attacks.reports_crafted", "count"),
    ("core.recover_ms", "ms"),
    ("core.recover_star_ms", "ms"),
    ("core.norm_sub_ms", "ms"),
    ("core.base_cut_ms", "ms"),
    ("core.detection_ms", "ms"),
    ("core.kmeans_ms", "ms"),
    ("core.recover_km_ms", "ms"),
    ("core.arm_output_ratio", "ratio"),
    ("pipeline.aggregation_ms", "ms"),
    ("pipeline.recoveries_ms", "ms"),
    ("runner.trial_ms_p50", "ms"),
    ("runner.parallel_efficiency", "ratio"),
    ("stream.shard_delta_ms", "ms"),
    ("stream.delta_fixed_us", "us"),
    ("stream.apply_ms", "ms"),
    ("stream.recover_ms", "ms"),
    ("transport.frame_bytes", "bytes"),
    ("transport.codec_us", "us"),
    ("coordinator.first_epoch_ms", "ms"),
    ("coordinator.overhead_ratio", "ratio"),
];

/// Counters reported per pass (trial workloads) or per epoch (streams).
const LAYER_COUNTERS: [&str; 3] = [
    "datasets.users_materialized",
    "protocols.reports_retained",
    "attacks.reports_crafted",
];

/// Spans whose summed time is reported per pass or per epoch.
const LAYER_SPANS: [&str; 17] = [
    "datasets.generate",
    "protocols.perturb_accumulate",
    "protocols.batch_sample",
    "protocols.malicious_fold",
    "attacks.craft",
    "core.recover",
    "core.recover_star",
    "core.norm_sub",
    "core.base_cut",
    "core.detection",
    "core.kmeans",
    "core.recover_km",
    "pipeline.aggregation",
    "pipeline.recoveries",
    "stream.shard_delta",
    "stream.apply",
    "stream.recover",
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ldp: Option<PathBuf>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut ldp = None;
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| LdpError::invalid(format!("{flag} needs a value")))?;
            let bad = |what: &str| LdpError::invalid(format!("{flag}: {what}, got '{value}'"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                "--ldp" => ldp = Some(PathBuf::from(value)),
                _ => return Err(LdpError::invalid(format!("unknown flag {flag}"))),
            }
        }
        let missing = |flag: &str| LdpError::invalid(format!("{flag} is required"));
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            ldp,
        })
    }

    /// The `ldp` binary; only the traced stream run needs it.
    fn ldp(&self) -> Result<&std::path::Path> {
        self.ldp.as_deref().ok_or_else(|| {
            LdpError::invalid("--ldp is required: the traced stream run spawns `ldp stream-worker`")
        })
    }

    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a run reports.
#[derive(Debug, Default)]
struct Report {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines for stderr.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: one JSON object on a single line. Metric names
    /// and units are plain identifiers, so nothing needs escaping; Rust's
    /// float `Display` is the shortest round-trip form, never an exponent.
    /// A non-finite metric is a harness bug: it renders as `null` and the
    /// run is not correct.
    fn render(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The set-up of a trial workload: build the paper-scale cells, then run
/// every cell once at warm-up size. Returns the cells.
fn trial_setup(args: &Args) -> Result<Vec<TrialCell>> {
    let cells = trial_cells(args.workload, args.seed, Sizing::PAPER)?;
    for cell in trial_cells(args.workload, args.seed, Sizing::PAPER.warm_up())? {
        run_cell(&cell)?;
    }
    Ok(cells)
}

/// The set-up of a stream workload: a fresh engine and its first epoch.
fn stream_setup(spec: StreamSpec, start: Instant) -> Result<f64> {
    let mut engine = StreamEngine::new(spec)?;
    engine.step()?;
    Ok(secs(start))
}

/// Runs the set-up [`SETUP_REPS`] times (the first timed from process
/// start) and returns each repetition's seconds, plus the trial cells.
fn setup(args: &Args, process_start: Instant) -> Result<(Vec<f64>, Vec<TrialCell>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        if args.workload.is_stream() {
            times.push(stream_setup(stream_spec(args.seed, Sizing::PAPER), start)?);
        } else {
            cells = trial_setup(args)?;
            times.push(secs(start));
        }
    }
    Ok((times, cells))
}

/// One library pass over the trial cells: checks every trial and
/// returns the pass digest.
fn trial_pass(cells: &[TrialCell], tally: &mut Tally) -> u64 {
    let mut digest = Digest::default();
    for cell in cells {
        match run_cell(cell) {
            Ok(out) => {
                out.digest(&mut digest);
                tally.record(cell.operations(), out.failures(cell));
            }
            Err(e) => tally.error(cell.operations(), format!("{}: {e}", cell.label)),
        }
    }
    digest.value()
}

/// Whether another pass should run: at least two, then until the budget
/// is spent.
fn more(passes: usize, timed: Instant, args: &Args) -> bool {
    passes < 2 || timed.elapsed() < args.budget()
}

/// Reports the end-to-end metrics; the epoch percentiles are taken over
/// `epoch_ms`.
fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    walls: &[f64],
    users_per_pass: f64,
    epoch_ms: &[f64],
) {
    let wall_s = median(walls);
    report.metric("setup_s", setup_s, "s");
    report.metric("wall_s", wall_s, "s");
    report.metric("users_per_s", users_per_pass / wall_s, "1/s");
    report.metric("epoch_ms_p50", quantile(epoch_ms, 0.5), "ms");
    report.metric("epoch_ms_p95", quantile(epoch_ms, 0.95), "ms");
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report
            .notes
            .push("peak_rss_mb unavailable (no /proc/self/status)".into()),
    }
    report.notes.push(format!(
        "passes {}, epoch samples {}, pass walls {:.4?}",
        walls.len(),
        epoch_ms.len(),
        walls
    ));
}

fn untraced_trials(args: &Args, setup_s: f64, cells: &[TrialCell]) -> Report {
    let mut report = Report::default();
    let users: usize = cells.iter().map(TrialCell::users).sum();
    let (mut walls, mut digests) = (Vec::new(), Vec::new());
    let timed = Instant::now();
    while more(walls.len(), timed, args) {
        let start = Instant::now();
        digests.push(trial_pass(cells, &mut report.tally));
        walls.push(secs(start));
    }
    for &d in &digests[1..] {
        report.tally.check_digest("repeat pass", d, digests[0]);
    }
    // A trial workload has no epochs: its unit of completed work is the
    // pass, so the epoch percentiles are taken over pass walls.
    let pass_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    end_to_end(&mut report, setup_s, &walls, users as f64, &pass_ms);
    report
}

/// One stream pass through the library; returns (digest, epoch samples).
fn stream_pass(spec: StreamSpec, tally: &mut Tally) -> Result<(u64, Vec<f64>)> {
    let (engine, epoch_ms) = run_inproc(spec)?;
    tally.record(spec.epochs, stream_failures(&engine)?);
    Ok((stream_digest(&engine)?, epoch_ms))
}

fn untraced_stream(args: &Args, setup_s: f64) -> Result<Report> {
    let mut report = Report::default();
    let spec = stream_spec(args.seed, Sizing::PAPER);
    let (mut walls, mut epoch_ms, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    while more(walls.len(), timed, args) {
        let start = Instant::now();
        let (digest, samples) = stream_pass(spec, &mut report.tally)?;
        walls.push(secs(start));
        digests.push(digest);
        epoch_ms.push(samples);
    }
    for &d in &digests[1..] {
        report.tally.check_digest("repeat pass", d, digests[0]);
    }
    report.notes.push(format!(
        "epochs timed {}; the percentiles take each epoch's minimum over the passes",
        epoch_ms.iter().map(Vec::len).sum::<usize>()
    ));
    let users = (spec.users_per_epoch * spec.epochs) as f64;
    let profile = epoch_profile(&epoch_ms);
    end_to_end(&mut report, setup_s, &walls, users, &profile);
    Ok(report)
}

/// Emits every per-layer metric from `values` (missing ones read 0).
fn layer_metrics(report: &mut Report, values: &[(String, f64)]) {
    for (name, unit) in LAYER_METRICS {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        report.metric(name, value, unit);
    }
}

/// The traced run's summary line: the untraced library pass against the
/// median traced replay pass.
fn overhead_note(setup_s: f64, library_s: f64, walls: &[f64]) -> String {
    format!(
        "setup_s {setup_s:.4}; library pass {library_s:.4} s; traced replay pass median {:.4} s \
         over {} passes (tracing overhead {:+.4} s)",
        median(walls),
        walls.len(),
        median(walls) - library_s
    )
}

/// Span totals and counters divided by `per` (passes or epochs).
fn normalized(t: &Tracer, per: f64) -> Vec<(String, f64)> {
    let mut values: Vec<(String, f64)> = LAYER_SPANS
        .iter()
        .map(|&name| (format!("{name}_ms"), t.total_ms(name) / per))
        .collect();
    values.extend(
        LAYER_COUNTERS
            .iter()
            .map(|&name| (name.to_string(), t.counter(name) as f64 / per)),
    );
    values
}

fn traced_trials(args: &Args, setup_s: f64, cells: &[TrialCell]) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let want = trial_pass(cells, &mut report.tally);
    let library_s = secs(start);

    let mut t = Tracer::new(Instant::now());
    let (mut walls, mut busy, mut capacity) = (Vec::new(), 0.0, 0.0);
    while walls.is_empty() || start.elapsed() < args.budget() {
        let pass = Instant::now();
        let mut digest = Digest::default();
        for cell in cells {
            let cell_start = Instant::now();
            let before = t.total_ms("runner.trial");
            match replay::cell(cell, &mut t) {
                Ok(out) => {
                    out.digest(&mut digest);
                    report.tally.record(cell.operations(), out.failures(cell));
                }
                Err(e) => report
                    .tally
                    .error(cell.operations(), format!("replay {}: {e}", cell.label)),
            }
            busy += t.total_ms("runner.trial") - before;
            capacity += workload::threads_for(cell.config.trials) as f64 * secs(cell_start) * 1e3;
        }
        walls.push(secs(pass));
        report
            .tally
            .check_digest("replay vs library", digest.value(), want);
    }

    let passes = walls.len() as f64;
    let mut values = normalized(&t, passes);
    values.push((
        "runner.trial_ms_p50".into(),
        median(&t.durations_ms("runner.trial")),
    ));
    values.push(("runner.parallel_efficiency".into(), busy / capacity));
    let arms = t.counter("core.arms_run") as f64;
    if arms > 0.0 {
        values.push((
            "core.arm_output_ratio".into(),
            t.counter("core.arm_outputs") as f64 / arms,
        ));
    }
    layer_metrics(&mut report, &values);
    report.notes.push(overhead_note(setup_s, library_s, &walls));
    report
}

/// Encodes one epoch's real deltas through the worker wire codec
/// (`to_json` + `write_frame` + `read_frame` + `from_json`) under the
/// span `transport.codec`, checking the round trip.
fn codec_round_trip(
    spec: &StreamSpec,
    epoch: usize,
    deltas: &[(usize, ShardDelta)],
    t: &mut Tracer,
) -> Result<()> {
    let domain_size = spec.domain().size();
    for (shard, delta) in deltas {
        let message = WorkerResponse::Delta {
            shard: *shard,
            epoch,
            delta: delta.clone(),
        };
        let (bytes, back) = t.span("transport.codec", |_| -> Result<_> {
            let mut wire = Vec::new();
            write_frame(&mut wire, &message.to_json())?;
            let frame = read_frame(&mut wire.as_slice())?
                .ok_or_else(|| LdpError::invalid("empty frame"))?;
            Ok((wire.len(), WorkerResponse::from_json(&frame, domain_size)?))
        })?;
        if back != message {
            return Err(LdpError::invalid(format!(
                "shard {shard} delta changed over the wire codec"
            )));
        }
        t.count("transport.frame_bytes", bytes);
        t.count("transport.frames", 1);
    }
    Ok(())
}

/// The one-user-per-shard probe: per-unit fixed cost of
/// `shard_epoch_delta` on the workload's spec, in µs.
fn delta_fixed_us(spec: StreamSpec) -> Result<f64> {
    let probe = StreamSpec {
        users_per_epoch: spec.shards,
        ..spec
    };
    let start = Instant::now();
    for epoch in 0..PROBE_EPOCHS {
        for shard in 0..spec.shards {
            shard_epoch_delta(&probe, shard, epoch)?;
        }
    }
    Ok(secs(start) * 1e6 / (PROBE_EPOCHS * spec.shards) as f64)
}

fn traced_stream(args: &Args, setup_s: f64) -> Result<Report> {
    let mut report = Report::default();
    let spec = stream_spec(args.seed, Sizing::PAPER);
    let start = Instant::now();
    let (want, library_ms) = stream_pass(spec, &mut report.tally)?;
    let library_s = secs(start);
    // The same spec and seed through worker processes: the trajectory
    // must be the in-process one, bit for bit.
    let workers = run_workers(spec, args.ldp()?)?;
    report.tally.check_digest(
        "workers vs in-process",
        stream_digest(&workers.engine)?,
        want,
    );
    let mut values: Vec<(String, f64)> = vec![
        ("coordinator.first_epoch_ms".into(), workers.first_epoch_ms),
        (
            "coordinator.overhead_ratio".into(),
            median(&workers.epoch_ms) / median(&library_ms),
        ),
    ];

    let mut t = Tracer::new(Instant::now());
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed() < args.budget() {
        let pass = Instant::now();
        let mut engine = StreamEngine::new(spec)?;
        while !engine.is_complete() {
            let epoch = engine.epochs_done();
            replay::epoch(&mut engine, &mut t, |deltas, t| {
                codec_round_trip(&spec, epoch, deltas, t)
            })?;
            t.count("stream.epochs", 1);
        }
        walls.push(secs(pass));
        report.tally.record(spec.epochs, stream_failures(&engine)?);
        report
            .tally
            .check_digest("replay vs library", stream_digest(&engine)?, want);
    }

    let epochs = t.counter("stream.epochs") as f64;
    values.extend(normalized(&t, epochs));
    values.push(("stream.delta_fixed_us".into(), delta_fixed_us(spec)?));
    let frames = t.counter("transport.frames") as f64;
    if frames > 0.0 {
        values.push((
            "transport.frame_bytes".into(),
            t.counter("transport.frame_bytes") as f64 / frames,
        ));
        values.push((
            "transport.codec_us".into(),
            t.total_ms("transport.codec") * 1e3 / frames,
        ));
    }
    layer_metrics(&mut report, &values);
    // The replay adds the wire-codec round trip, which the library pass
    // does not run; it is left out of the tracing overhead.
    let codec_s = t.total_ms("transport.codec") / 1e3 / walls.len() as f64;
    let replay_walls: Vec<f64> = walls.iter().map(|w| w - codec_s).collect();
    report
        .notes
        .push(overhead_note(setup_s, library_s, &replay_walls));
    Ok(report)
}

fn run(args: &Args, process_start: Instant) -> Result<Report> {
    let (setup_times, cells) = setup(args, process_start)?;
    let setup_s = median(&setup_times);
    let mut report = match (args.workload.is_stream(), args.trace) {
        (false, false) => untraced_trials(args, setup_s, &cells),
        (false, true) => traced_trials(args, setup_s, &cells),
        (true, false) => untraced_stream(args, setup_s)?,
        (true, true) => traced_stream(args, setup_s)?,
    };
    report
        .notes
        .push(format!("set-up repetitions {setup_times:.4?} s"));
    Ok(report)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(report) => {
            for line in report.tally.notes.iter().chain(&report.notes) {
                eprintln!("perfbench {}: {line}", args.workload.name());
            }
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

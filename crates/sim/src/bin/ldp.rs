//! `ldp` — run a single LDPRecover experiment cell from the command
//! line, or reproduce whole paper figures via the `repro` subcommand.
//!
//! ```text
//! cargo run --release -p ldp-sim --bin ldp -- \
//!     --dataset ipums --protocol oue --attack mga --targets 10 \
//!     --beta 0.05 --eta 0.2 --epsilon 0.5 --trials 5 --scale 0.1
//!
//! cargo run --release -p ldp-sim --bin ldp -- \
//!     repro --figure fig3 --scale small --json fig3.json
//! ```
//!
//! The default mode prints MSE (and FG for targeted attacks) for every
//! recovery arm — the full method comparison of the paper's Fig. 3/4 for
//! any parameter combination. `repro` drives the scenario catalog
//! (`ldp_sim::scenario::catalog`): one figure id or `all`, at a named
//! scale preset or an explicit fraction.

use ldp_attacks::AttackKind;
use ldp_common::json::write_atomic;
use ldp_common::{Json, LdpError, Result};
use ldp_datasets::{DatasetKind, ScalePreset};
use ldp_protocols::ProtocolKind;
use ldp_sim::scenario::{catalog, run_scenario, RunScale, ScaleSpec};
use ldp_sim::stream::checkpoint::spec_to_json;
use ldp_sim::stream::coordinator::{self, CoordinatorConfig, WorkerLauncher};
use ldp_sim::stream::worker::{run_worker, FaultPlan};
use ldp_sim::stream::{StreamEngine, StreamSpec, WindowMode};
use ldp_sim::table::{fmt_mean, fmt_stat};
use ldp_sim::{run_experiment, ExperimentConfig, PipelineOptions, Table, DEFAULT_SEED};
use ldprecover::{ArmKind, ArmSet};

const USAGE: &str = "\
ldp — run one LDPRecover experiment cell
ldp repro — reproduce whole paper figures (see `ldp repro --help`)
ldp stream — sharded streaming ingestion with per-epoch recovery
             (see `ldp stream --help`)

options:
  --dataset ipums|fire          workload                [ipums]
  --protocol grr|oue|olh|sue|hr LDP protocol            [grr]
  --attack manip|mga|mga-sampled|aa|aa-camo|mga-ipa|multi|none
                                poisoning attack        [aa]
  --targets N                   r for targeted attacks / |H| for manip [10]
  --attackers N                 attackers for `multi`   [5]
  --beta F                      malicious fraction      [0.05]
  --eta F                       recovery's assumed m/n  [0.2]
  --epsilon F                   privacy budget          [0.5]
  --trials N                    trials to average       [5]
  --scale F                     population scale (0,1]  [0.1]
  --seed N|0xHEX                master seed             [0x1db05eed]
  --arms a,b,c                  defense arms to run, from the registry:
                                recover, recover-star, detection, kmeans,
                                recover-km, norm-sub, base-cut
                                [default: full comparison when attacked]
                                (batched aggregation unless one needs reports)
  --csv                         CSV output
  --help                        this text";

/// Parsed `ldp` options.
struct Args {
    config: ExperimentConfig,
    arms: Option<ArmSet>,
    csv: bool,
}

fn parse_args<I: Iterator<Item = String>>(iter: I) -> Result<Args> {
    let mut cell = CellFlags::new(DEFAULT_SPEC);
    let (mut trials, mut scale, mut arms, mut csv) = (5, 0.1, None, false);
    for_each_flag(iter, USAGE, |flag, value| {
        match flag {
            "--trials" => trials = parse(&value()?, flag)?,
            "--scale" => scale = parse(&value()?, flag)?,
            "--arms" => arms = Some(ArmSet::parse(&value()?)?),
            "--csv" => csv = true,
            _ => return cell.apply(flag, value),
        }
        Ok(true)
    })?;
    let cell = cell.finish();
    let config = ExperimentConfig {
        dataset: cell.dataset,
        protocol: cell.protocol,
        epsilon: cell.epsilon,
        attack: cell.attack,
        beta: cell.beta,
        eta: cell.eta,
        trials,
        scale,
        seed: cell.seed,
    };
    Ok(Args { config, arms, csv })
}

/// The cell defaults `ldp` and `ldp stream` share, plus the stream shape
/// `ldp stream` starts from.
const DEFAULT_SPEC: StreamSpec = StreamSpec {
    dataset: DatasetKind::Ipums,
    protocol: ProtocolKind::Grr,
    attack: Some(AttackKind::Adaptive),
    epsilon: 0.5,
    beta: 0.05,
    eta: 0.2,
    shards: 4,
    epochs: 8,
    users_per_epoch: 5000,
    seed: DEFAULT_SEED,
    window: WindowMode::Cumulative,
};

/// The one parser of the nine cell flags `--dataset --protocol --attack
/// --targets --attackers --beta --eta --epsilon --seed`, shared by `ldp`
/// and `ldp stream`. It edits a spec it is seeded from — the defaults, or
/// on `--resume` the checkpoint's — so a flag that restates the seed's
/// value changes nothing.
struct CellFlags {
    spec: StreamSpec,
    /// The `--attack` kind, sized from `--targets`/`--attackers` last so
    /// the flags work in any order.
    attack: Option<AttackKind>,
    /// `--targets`: the size of every attack but `multi`.
    targets: usize,
    /// `--attackers`: the size of `multi`.
    attackers: usize,
}

impl CellFlags {
    fn new(spec: StreamSpec) -> Self {
        let mut cell = CellFlags {
            spec,
            attack: spec.attack,
            targets: 10,
            attackers: 5,
        };
        if let Some((key, size)) = spec.attack.and_then(|attack| attack.size()) {
            *cell.size_flag(key) = size;
        }
        cell
    }

    /// The flag that sizes an attack whose size key is `key`.
    fn size_flag(&mut self, key: &str) -> &mut usize {
        if key == "attackers" {
            &mut self.attackers
        } else {
            &mut self.targets
        }
    }

    /// Applies `flag` if it is a cell flag; `false` for any other flag.
    fn apply(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String>) -> Result<bool> {
        let spec = &mut self.spec;
        match flag {
            "--dataset" => spec.dataset = DatasetKind::parse(&value()?)?,
            "--protocol" => spec.protocol = ProtocolKind::parse(&value()?)?,
            "--attack" => {
                self.attack = match value()?.to_ascii_lowercase().as_str() {
                    "none" => None,
                    name => Some(
                        AttackKind::from_name(name, 0)
                            .ok_or_else(|| LdpError::invalid(format!("unknown attack '{name}'")))?,
                    ),
                }
            }
            "--targets" => self.targets = parse(&value()?, flag)?,
            "--attackers" => self.attackers = parse(&value()?, flag)?,
            "--beta" => spec.beta = parse(&value()?, flag)?,
            "--eta" => spec.eta = parse(&value()?, flag)?,
            "--epsilon" => spec.epsilon = parse(&value()?, flag)?,
            "--seed" => spec.seed = parse_seed(&value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The edited spec; no attack zeroes β.
    fn finish(mut self) -> StreamSpec {
        let mut spec = self.spec;
        spec.attack = self.attack.and_then(|kind| match kind.size() {
            Some((key, _)) => AttackKind::from_name(kind.name(), *self.size_flag(key)),
            None => Some(kind),
        });
        if spec.attack.is_none() {
            spec.beta = 0.0;
        }
        spec
    }
}

/// Runs `handle` on each flag of `iter`. `handle` pulls the flag's value
/// through its second argument and returns `false` for a flag it does not
/// know. `--help` prints `usage` and exits.
fn for_each_flag<I: Iterator<Item = String>>(
    mut iter: I,
    usage: &str,
    mut handle: impl FnMut(&str, &mut dyn FnMut() -> Result<String>) -> Result<bool>,
) -> Result<()> {
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        let mut value = || {
            iter.next()
                .ok_or_else(|| LdpError::invalid(format!("{flag} requires a value")))
        };
        if !handle(&flag, &mut value)? {
            return Err(LdpError::invalid(format!("unknown flag '{flag}'")));
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr<Err: std::fmt::Display>>(s: &str, flag: &str) -> Result<T> {
    s.parse()
        .map_err(|e| LdpError::invalid(format!("{flag}: {e}")))
}

/// Parses a `--seed` value: decimal, or `0x` hex as run headers print it.
fn parse_seed(s: &str) -> Result<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| LdpError::invalid(format!("--seed: {e}")))
}

const REPRO_USAGE: &str = "\
ldp repro — reproduce the paper's figures from the scenario catalog

options:
  --figure ID|all               which figure (fig3..fig10, table1,
                                ablations, kv_extension, stream_online,
                                stream_windowed, defense_arms) [all]
  --scale small|paper|F         scale preset or fraction       [small]
  --trials N                    trials per cell    [preset default: 5/10]
  --seed N|0xHEX                master seed              [0x1db05eed]
  --json PATH                   write JSON report(s); a directory when
                                several figures run
  --csv                         CSV tables
  --help                        this text";

/// Parsed `ldp repro` options.
struct ReproArgs {
    figure: String,
    scale: ScaleSpec,
    trials: Option<usize>,
    seed: u64,
    json: Option<std::path::PathBuf>,
    csv: bool,
}

fn parse_repro_args<I: Iterator<Item = String>>(iter: I) -> Result<ReproArgs> {
    let mut args = ReproArgs {
        figure: "all".to_string(),
        scale: ScaleSpec::Preset(ScalePreset::Small),
        trials: None,
        seed: DEFAULT_SEED,
        json: None,
        csv: false,
    };
    for_each_flag(iter, REPRO_USAGE, |flag, value| {
        match flag {
            "--figure" => args.figure = value()?.to_ascii_lowercase(),
            "--scale" => args.scale = ScaleSpec::parse(&value()?)?,
            "--trials" => args.trials = Some(parse(&value()?, flag)?),
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--json" => args.json = Some(value()?.into()),
            "--csv" => args.csv = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if args.trials == Some(0) {
        return Err(LdpError::invalid("--trials must be ≥ 1"));
    }
    Ok(args)
}

impl ReproArgs {
    /// The engine scale: explicit `--trials` wins, otherwise the preset's
    /// default (5 for `small`, the paper's 10 otherwise).
    fn run_scale(&self) -> RunScale {
        let trials = self.trials.unwrap_or(match self.scale {
            ScaleSpec::Preset(preset) => preset.trials(),
            ScaleSpec::Fraction(_) => 10,
        });
        RunScale {
            trials,
            seed: self.seed,
            scale: self.scale,
        }
    }
}

/// Fail fast — before any simulation work — when an output flag was given
/// and points into a directory that does not exist, instead of surfacing a
/// bare io error (or losing a long run's output) at write time.
fn validate_output_parent(flag: &str, path: Option<&std::path::Path>) -> Result<()> {
    let Some((path, parent)) = path.and_then(|path| Some((path, path.parent()?))) else {
        return Ok(());
    };
    // A bare filename (empty parent) resolves against the current directory.
    if parent.as_os_str().is_empty() || parent.is_dir() {
        Ok(())
    } else {
        Err(LdpError::invalid(format!(
            "{flag} {}: parent directory {} does not exist (create it first)",
            path.display(),
            parent.display()
        )))
    }
}

fn repro_main<I: Iterator<Item = String>>(iter: I) -> Result<()> {
    let args = parse_repro_args(iter)?;
    validate_output_parent("--json", args.json.as_deref())?;
    let ids = match args.figure.as_str() {
        "all" => catalog::FIGURE_IDS.to_vec(),
        id => vec![id],
    };
    // Resolve every scenario first, so an unknown figure fails before any
    // work.
    let scenarios = ids.into_iter().map(catalog::scenario);
    let scenarios = scenarios.collect::<Result<Vec<_>>>()?;
    let scale = args.run_scale();
    for scenario in &scenarios {
        let report = run_scenario(scenario, &scale)?;
        print!("{}", report.render_text(args.csv));
        if let Some(path) = &args.json {
            let written = report.write_json(path, scenarios.len() > 1)?;
            eprintln!("wrote {}", written.display());
        }
    }
    Ok(())
}

const STREAM_USAGE: &str = "\
ldp stream — sharded streaming ingestion with epoch-based online recovery

Synthetic genuine+malicious traffic is fanned across shards (each with its
own derived RNG stream), merged at every epoch boundary, and re-recovered,
producing a recovery-accuracy-vs-reports-seen trajectory. With
--checkpoint the full engine state is written (atomically) after every
epoch; --resume continues a suspended run bit-identically (same bytes as
uninterrupted). With --workers N the shards are computed by N separate
worker processes with failover replay — still byte-identical.

options:
  --dataset ipums|fire          workload                [ipums]
  --protocol grr|oue|olh|sue|hr LDP protocol            [grr]
  --attack manip|mga|mga-sampled|aa|aa-camo|mga-ipa|multi|none
                                poisoning campaign      [aa]
  --targets N                   r for targeted attacks / |H| for manip [10]
  --attackers N                 attackers for `multi`   [5]
  --beta F                      malicious fraction      [0.05]
  --eta F                       recovery's assumed m/n  [0.2]
  --epsilon F                   privacy budget          [0.5]
  --shards N                    ingestion shards        [4]
  --epochs N                    stream length           [8]
  --users-per-epoch N           genuine users per epoch [5000]
  --seed N|0xHEX                master seed             [0x1db05eed]
  --window cumulative|sliding:N|decay:L
                                recovery window over epochs: all epochs,
                                the last N, or exponential decay with
                                factor L in (0,1)       [cumulative]
  --workers N                   distribute shards over N worker processes
                                (byte-identical to the in-process engine)
  --worker-timeout-ms N         per-work-unit reply timeout before a
                                worker is killed and replayed   [10000]
  --inject-fault K[@U]          test-only: worker 0's first process
                                misbehaves on its U-th unit; K is
                                worker-crash|stall|corrupt-frame
  --checkpoint PATH             write the engine state after every epoch
  --resume PATH                 restore from a checkpoint (spec flags may
                                restate the checkpoint spec, not change it)
  --suspend-after N             stop once N epochs are done (for --resume)
  --arms a,b,c                  also evaluate these count-only defense arms
                                on the final merged state (recover,
                                recover-star, norm-sub, base-cut)
  --json PATH                   write the JSON report (spec + trajectory)
  --csv                         CSV trajectory table
  --help                        this text";

/// Parsed `ldp stream` options.
struct StreamArgs {
    spec: StreamSpec,
    workers: Option<usize>,
    worker_timeout_ms: u64,
    inject_fault: Option<String>,
    checkpoint: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    suspend_after: Option<usize>,
    arms: Option<ArmSet>,
    json: Option<std::path::PathBuf>,
    csv: bool,
}

/// Parses `ldp stream` flags; the spec flags edit `base`.
fn parse_stream_args<I: Iterator<Item = String>>(iter: I, base: StreamSpec) -> Result<StreamArgs> {
    let mut cell = CellFlags::new(base);
    let mut args = StreamArgs {
        spec: base,
        workers: None,
        worker_timeout_ms: 10_000,
        inject_fault: None,
        checkpoint: None,
        resume: None,
        suspend_after: None,
        arms: None,
        json: None,
        csv: false,
    };
    for_each_flag(iter, STREAM_USAGE, |flag, value| {
        let spec = &mut cell.spec;
        match flag {
            "--shards" => spec.shards = parse(&value()?, flag)?,
            "--epochs" => spec.epochs = parse(&value()?, flag)?,
            "--users-per-epoch" => spec.users_per_epoch = parse(&value()?, flag)?,
            "--window" => spec.window = WindowMode::parse(&value()?)?,
            "--workers" => {
                let n: usize = parse(&value()?, flag)?;
                if n == 0 {
                    return Err(LdpError::invalid("--workers must be ≥ 1"));
                }
                args.workers = Some(n);
            }
            "--worker-timeout-ms" => args.worker_timeout_ms = parse(&value()?, flag)?,
            "--inject-fault" => {
                let fault = value()?;
                FaultPlan::parse(&fault)?; // validate eagerly; workers re-parse
                args.inject_fault = Some(fault);
            }
            "--checkpoint" => args.checkpoint = Some(value()?.into()),
            "--resume" => args.resume = Some(value()?.into()),
            "--suspend-after" => args.suspend_after = Some(parse(&value()?, flag)?),
            "--arms" => args.arms = Some(ArmSet::parse(&value()?)?),
            "--json" => args.json = Some(value()?.into()),
            "--csv" => args.csv = true,
            _ => return cell.apply(flag, value),
        }
        Ok(true)
    })?;
    args.spec = cell.finish();
    if args.inject_fault.is_some() && args.workers.is_none() {
        return Err(LdpError::invalid(
            "--inject-fault targets worker processes; it requires --workers",
        ));
    }
    Ok(args)
}

/// One `  --<flag>: flag X != checkpoint Y` line, in key order, per spec
/// member that `given` (the checkpoint's spec with the given flags
/// re-applied) changes.
/// Members compare in their checkpoint encoding ([`spec_to_json`]), where
/// a member's key names its flag and f64s are shortest-roundtrip, so
/// equal text means bit-equal.
fn resume_spec_conflicts(given: &StreamSpec, checkpoint: &StreamSpec) -> Vec<String> {
    let (given, stored) = (spec_to_json(given), spec_to_json(checkpoint));
    let (Json::Obj(a), Json::Obj(b)) = (&given, &stored) else {
        unreachable!("specs encode as JSON objects");
    };
    let keys: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|(k, _)| k.as_str()).collect();
    keys.into_iter()
        .filter_map(|key| {
            let (flag, was) = (member_text(given.get(key)), member_text(stored.get(key)));
            (flag != was).then(|| {
                let flag_name = key.replace('_', "-");
                format!("  --{flag_name}: flag {flag} != checkpoint {was}")
            })
        })
        .collect()
}

/// A spec member as conflict text: strings bare, objects (the attack) as
/// `key=value` pairs, and the one optional member, `window`, as
/// `cumulative` when absent.
fn member_text(member: Option<&Json>) -> String {
    match member {
        None => WindowMode::Cumulative.name(),
        Some(Json::Null) => "none".into(),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(key, value)| format!("{key}={}", member_text(Some(value))))
            .collect::<Vec<_>>()
            .join(" "),
        Some(other) => other.render().trim_end().to_string(),
    }
}

fn stream_main<I: Iterator<Item = String>>(iter: I) -> Result<()> {
    let raw: Vec<String> = iter.collect();
    let args = parse_stream_args(raw.iter().cloned(), DEFAULT_SPEC)?;
    validate_output_parent("--json", args.json.as_deref())?;
    validate_output_parent("--checkpoint", args.checkpoint.as_deref())?;
    let mut engine = match &args.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let engine = StreamEngine::from_checkpoint(&Json::parse(&text)?)?;
            let given = parse_stream_args(raw.iter().cloned(), *engine.spec())?.spec;
            let conflicts = resume_spec_conflicts(&given, engine.spec());
            if !conflicts.is_empty() {
                return Err(LdpError::invalid(format!(
                    "--resume {}: the checkpoint's spec disagrees with the given spec flags:\n\
                     {}\n(drop the conflicting flags, or start a fresh run without --resume)",
                    path.display(),
                    conflicts.join("\n")
                )));
            }
            engine
        }
        None => StreamEngine::new(args.spec)?,
    };
    let horizon = args
        .suspend_after
        .map_or(engine.spec().epochs, |e| e.min(engine.spec().epochs));
    let checkpoint_after = |engine: &StreamEngine| -> Result<()> {
        if let Some(path) = &args.checkpoint {
            write_atomic(path, &engine.to_checkpoint().render())?;
        }
        Ok(())
    };
    // Dump the starting state too, so the checkpoint file exists (and the
    // resume hint below holds) even if no epoch runs before suspension.
    checkpoint_after(&engine)?;
    match args.workers {
        Some(workers) => {
            let program = std::env::current_exe().map_err(|e| {
                LdpError::invalid(format!("locating the ldp binary for workers: {e}"))
            })?;
            let mut launcher = WorkerLauncher::for_binary(program);
            if let Some(fault) = &args.inject_fault {
                launcher.first_spawn_extra_args = vec!["--inject-fault".into(), fault.clone()];
            }
            let config = CoordinatorConfig {
                workers,
                timeout: std::time::Duration::from_millis(args.worker_timeout_ms),
                ..CoordinatorConfig::default()
            };
            coordinator::drive_with(&mut engine, horizon, &launcher, &config, &checkpoint_after)?;
        }
        None => {
            while engine.epochs_done() < horizon {
                engine.step()?;
                checkpoint_after(&engine)?;
            }
        }
    }

    let spec = *engine.spec();
    println!(
        "stream {}  (dataset={}, eps={}, beta={}, eta={}, shards={}, epochs={}/{}, \
         users/epoch={}, seed={:#x})\n",
        match spec.attack {
            Some(attack) => format!("{}-{}", attack.label(), spec.protocol),
            None => format!("unpoisoned-{}", spec.protocol),
        },
        spec.dataset,
        spec.epsilon,
        spec.beta,
        spec.eta,
        spec.shards,
        engine.epochs_done(),
        spec.epochs,
        spec.users_per_epoch,
        spec.seed
    );
    let mut table = Table::new([
        "epoch",
        "reports",
        "MSE before",
        "MSE LDPRecover",
        "noise floor",
    ]);
    for point in engine.trajectory() {
        table.push_row([
            format!("{}", point.epoch + 1),
            format!("{}", point.reports_seen),
            format!("{:.3e}", point.mse_before),
            format!("{:.3e}", point.mse_recovered),
            format!("{:.3e}", point.mse_genuine),
        ]);
    }
    print_table(&table, args.csv);
    if engine.epochs_done() < spec.epochs {
        println!(
            "\nsuspended after {} of {} epochs{}",
            engine.epochs_done(),
            spec.epochs,
            args.checkpoint
                .as_deref()
                .map(|p| format!(" (resume with --resume {})", p.display()))
                .unwrap_or_default()
        );
    }

    // Optional open-registry evaluation of the final merged state: any
    // count-only arm set, eligibility decided by declared requirements.
    let arms = match &args.arms {
        Some(arms) if engine.epochs_done() > 0 => Some(score_stream_arms(&engine, arms)?),
        Some(_) => {
            eprintln!("note: --arms skipped (no epochs ingested, nothing to evaluate)");
            None
        }
        None => None,
    };
    if let Some(arms) = &arms {
        let mut arm_table = Table::new(["arm", "MSE (final state)"]);
        for (key, mse, _) in arms {
            arm_table.push_row([arm_column_label(key), format!("{mse:.3e}")]);
        }
        println!("\narms on the final merged state:");
        print_table(&arm_table, args.csv);
    }

    if let Some(path) = &args.json {
        let mut report = engine.report()?;
        // The arms block is additive and only present when requested, so
        // default reports stay byte-identical across resume boundaries.
        if let (Some(arms), Json::Obj(fields)) = (&arms, &mut report) {
            let arm = |mse: f64, freqs: &[f64]| {
                let freqs = freqs.iter().map(|&x| Json::Num(x)).collect();
                Json::Obj(vec![
                    ("mse".into(), Json::Num(mse)),
                    ("frequencies".into(), Json::Arr(freqs)),
                ])
            };
            let arms_json = arms
                .iter()
                .map(|(key, mse, freqs)| (key.clone(), arm(*mse, freqs)));
            fields.push(("arms".into(), Json::Obj(arms_json.collect())));
        }
        write_atomic(path, &report.render())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The hidden `ldp stream-worker` subcommand: serve length-prefixed work
/// frames on stdio until shutdown/EOF. Spawned by the stream
/// coordinator; not part of the user-facing CLI surface.
fn stream_worker_main<I: Iterator<Item = String>>(mut iter: I) -> Result<()> {
    let mut fault = None;
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--inject-fault" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| LdpError::invalid("--inject-fault requires a value"))?;
                fault = Some(FaultPlan::parse(&spec)?);
            }
            other => {
                return Err(LdpError::invalid(format!(
                    "unknown stream-worker flag '{other}'"
                )))
            }
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_worker(&mut stdin.lock(), &mut stdout.lock(), fault)
}

fn main() -> Result<()> {
    let mut raw = std::env::args().skip(1).peekable();
    match raw.peek().cloned().as_deref() {
        Some("repro") => return repro_main(raw.skip(1)),
        Some("stream") => return stream_main(raw.skip(1)),
        Some("stream-worker") => return stream_worker_main(raw.skip(1)),
        _ => {}
    }
    let args = parse_args(raw)?;
    let config = args.config;
    config.validate()?;

    // Arm selection: an explicit --arms list wins; otherwise the full
    // comparison when attacked. `Auto` aggregation then takes the batched
    // path unless a selected arm consumes raw reports.
    let options = match (&args.arms, config.attack.is_some()) {
        (Some(arms), _) => PipelineOptions::with_arms(arms.clone()),
        (None, true) => PipelineOptions::full_comparison(),
        (None, false) => PipelineOptions::default(),
    };
    let result = run_experiment(&config, &options)?;

    println!(
        "cell {}  (dataset={}, eps={}, beta={}, eta={}, trials={}, scale={}, arms={})\n",
        config.label(),
        config.dataset,
        config.epsilon,
        config.beta,
        config.eta,
        config.trials,
        config.scale,
        options.arms
    );

    // One column per arm that ran, derived from the open result surface —
    // the table grows with `--arms`, no per-defense code here.
    let mut header = vec!["metric".to_string(), "before".to_string()];
    header.extend(result.arms.iter().map(|(key, _)| arm_column_label(key)));
    let mut table = Table::new(header);
    let mut mse_row = vec!["MSE".to_string(), fmt_mean(&result.mse_before)];
    mse_row.extend(result.arms.iter().map(|(_, arm)| fmt_stat(&arm.mse)));
    table.push_row(mse_row);
    if result.fg_before.is_some() {
        let mut fg_row = vec!["FG".to_string(), fmt_stat(&result.fg_before)];
        fg_row.extend(result.arms.iter().map(|(_, arm)| fmt_stat(&arm.fg)));
        table.push_row(fg_row);
    }
    print_table(&table, args.csv);
    println!(
        "\nnoise floor (genuine estimate MSE): {}",
        fmt_mean(&result.mse_genuine)
    );
    Ok(())
}

/// Runs `arms` on the engine's final window and scores each as
/// `(metric key, MSE, frequencies)`. The MSE is against the window's
/// realized truth — the truth the trajectory's MSE columns use — so the
/// `recover` arm reproduces the last "MSE LDPRecover" in every window mode.
fn score_stream_arms(engine: &StreamEngine, arms: &ArmSet) -> Result<Vec<(String, f64, Vec<f64>)>> {
    let truth = engine.recovery_snapshot()?.truth;
    Ok(engine
        .arm_snapshot(arms)?
        .into_iter()
        .map(|(key, out)| {
            (
                key,
                ldp_sim::metrics::mse(&out.frequencies, &truth),
                out.frequencies,
            )
        })
        .collect())
}

/// Prints `table` aligned, or as CSV with `--csv`.
fn print_table(t: &Table, csv: bool) {
    let text = if csv { t.render_csv() } else { t.render() };
    print!("{text}");
}

/// Column label for an arm's metric key: the registry's display label
/// (`LDPRecover*`), falling back to the key for out-of-registry arms.
fn arm_column_label(metric_key: &str) -> String {
    ArmKind::ALL
        .into_iter()
        .find(|kind| kind.metric_key() == metric_key)
        .map(|kind| kind.label().to_string())
        .unwrap_or_else(|| metric_key.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap().config;
        assert_eq!(a.dataset, DatasetKind::Ipums);
        assert_eq!(a.protocol, ProtocolKind::Grr);
        assert_eq!(a.attack, Some(AttackKind::Adaptive));
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--dataset",
            "fire",
            "--protocol",
            "oue",
            "--attack",
            "mga",
            "--targets",
            "7",
            "--beta",
            "0.1",
            "--eta",
            "0.3",
            "--epsilon",
            "1.0",
            "--trials",
            "2",
            "--scale",
            "0.05",
            "--seed",
            "9",
            "--csv",
        ])
        .unwrap();
        assert!(a.csv);
        let a = a.config;
        assert_eq!(a.dataset, DatasetKind::Fire);
        assert_eq!(a.protocol, ProtocolKind::Oue);
        assert_eq!(a.attack, Some(AttackKind::Mga { r: 7 }));
        assert_eq!(a.beta, 0.1);
    }

    #[test]
    fn attack_none_zeroes_beta() {
        let a = parse(&["--attack", "none"]).unwrap().config;
        assert!(a.attack.is_none());
        assert_eq!(a.beta, 0.0);
    }

    #[test]
    fn targets_apply_regardless_of_flag_order() {
        let a = parse(&["--attack", "mga", "--targets", "3"]).unwrap();
        assert_eq!(a.config.attack, Some(AttackKind::Mga { r: 3 }));
        let b = parse(&["--targets", "3", "--attack", "manip"]).unwrap();
        assert_eq!(b.config.attack, Some(AttackKind::Manip { h: 3 }));
        let c = parse(&["--attackers", "3", "--attack", "multi", "--targets", "9"]).unwrap();
        assert_eq!(
            c.config.attack,
            Some(AttackKind::MultiAdaptive { attackers: 3 })
        );
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&["--dataset", "census"]).is_err());
        assert!(parse(&["--attack", "ddos"]).is_err());
        assert!(parse(&["--beta"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--aggregation", "auto"]).is_err(), "flag removed");
    }

    #[test]
    fn seed_takes_decimal_or_the_printed_hex_form() {
        let hex = ["--seed", "0x1db05eed"];
        assert_eq!(parse(&hex).unwrap().config.seed, DEFAULT_SEED);
        assert_eq!(parse_repro(&hex).unwrap().seed, DEFAULT_SEED);
        assert_eq!(parse_stream(&hex).unwrap().spec.seed, DEFAULT_SEED);
        let decimal = DEFAULT_SEED.to_string();
        assert_eq!(
            parse(&["--seed", &decimal]).unwrap().config.seed,
            DEFAULT_SEED
        );
        assert_eq!(parse_seed(&u64::MAX.to_string()).unwrap(), u64::MAX);
        for bad in ["0xZZ", "0x", "-1", "seed"] {
            let err = parse(&["--seed", bad]).err().expect(bad).to_string();
            assert!(err.contains("--seed"), "{err}");
            assert!(parse_repro(&["--seed", bad]).is_err(), "{bad}");
            assert!(parse_stream(&["--seed", bad]).is_err(), "{bad}");
        }
    }

    fn parse_repro(args: &[&str]) -> Result<ReproArgs> {
        parse_repro_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn repro_defaults_to_all_figures_at_small_scale() {
        let a = parse_repro(&[]).unwrap();
        assert_eq!(a.figure, "all");
        assert_eq!(a.scale, ScaleSpec::Preset(ScalePreset::Small));
        assert_eq!(a.run_scale().trials, ScalePreset::Small.trials());
        assert_eq!(a.run_scale().seed, DEFAULT_SEED);
    }

    #[test]
    fn repro_flags_parse() {
        let a = parse_repro(&[
            "--figure", "FIG3", "--scale", "paper", "--seed", "9", "--json", "out", "--csv",
        ])
        .unwrap();
        assert_eq!(a.figure, "fig3");
        assert_eq!(a.scale, ScaleSpec::Preset(ScalePreset::Paper));
        assert_eq!(a.run_scale().trials, 10, "paper preset default");
        assert_eq!(a.seed, 9);
        assert!(a.csv);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out")));
        // Explicit trials beat the preset default; fractions default to 10.
        let a = parse_repro(&["--trials", "2", "--scale", "0.1"]).unwrap();
        assert_eq!(a.run_scale().trials, 2);
        assert_eq!(
            parse_repro(&["--scale", "0.1"]).unwrap().run_scale().trials,
            10
        );
    }

    #[test]
    fn repro_rejects_bad_flags() {
        assert!(parse_repro(&["--scale", "huge"]).is_err());
        assert!(parse_repro(&["--figure"]).is_err());
        assert!(parse_repro(&["--frobnicate"]).is_err());
        assert!(parse_repro(&["--trials", "zero"]).is_err());
        assert!(parse_repro(&["--scale", "2.0"]).is_err());
        let err = parse_repro(&["--trials", "0"]).err().expect("--trials 0");
        assert!(err.to_string().contains("--trials"), "{err}");
    }

    fn parse_stream(args: &[&str]) -> Result<StreamArgs> {
        parse_stream_args(args.iter().map(|s| s.to_string()), DEFAULT_SPEC)
    }

    #[test]
    fn stream_defaults() {
        let a = parse_stream(&[]).unwrap();
        assert_eq!(a.spec.shards, 4);
        assert_eq!(a.spec.epochs, 8);
        assert_eq!(a.spec.users_per_epoch, 5000);
        assert_eq!(a.spec.attack, Some(AttackKind::Adaptive));
        assert_eq!(a.spec.seed, DEFAULT_SEED);
        assert_eq!(a.spec.window, WindowMode::Cumulative);
        assert!(a.workers.is_none(), "in-process engine by default");
        assert_eq!(a.worker_timeout_ms, 10_000);
        assert!(a.checkpoint.is_none() && a.resume.is_none());
        assert_eq!(a.spec, DEFAULT_SPEC);
        assert!(a.spec.validate().is_ok());
    }

    #[test]
    fn stream_flags_parse() {
        let a = parse_stream(&[
            "--protocol",
            "oue",
            "--attack",
            "mga",
            "--targets",
            "7",
            "--shards",
            "16",
            "--epochs",
            "3",
            "--users-per-epoch",
            "1200",
            "--checkpoint",
            "c.json",
            "--suspend-after",
            "2",
            "--json",
            "out.json",
            "--csv",
        ])
        .unwrap();
        assert_eq!(a.spec.protocol, ProtocolKind::Oue);
        assert_eq!(a.spec.attack, Some(AttackKind::Mga { r: 7 }));
        assert_eq!(a.spec.shards, 16);
        assert_eq!(a.spec.epochs, 3);
        assert_eq!(a.spec.users_per_epoch, 1200);
        assert_eq!(
            a.checkpoint.as_deref(),
            Some(std::path::Path::new("c.json"))
        );
        assert_eq!(a.suspend_after, Some(2));
        assert!(a.csv);
        // `none` zeroes beta, like the cell runner.
        let clean = parse_stream(&["--attack", "none"]).unwrap();
        assert!(clean.spec.attack.is_none());
        assert_eq!(clean.spec.beta, 0.0);
    }

    #[test]
    fn stream_worker_flags_parse() {
        let a = parse_stream(&[
            "--workers",
            "4",
            "--worker-timeout-ms",
            "2500",
            "--inject-fault",
            "corrupt-frame@1",
            "--window",
            "sliding:3",
        ])
        .unwrap();
        assert_eq!(a.workers, Some(4));
        assert_eq!(a.worker_timeout_ms, 2500);
        assert_eq!(a.inject_fault.as_deref(), Some("corrupt-frame@1"));
        assert_eq!(
            a.spec,
            StreamSpec {
                window: WindowMode::Sliding(3),
                ..DEFAULT_SPEC
            },
            "worker knobs are not spec flags"
        );
        // Rejections: zero workers, malformed faults, faults without
        // workers, malformed windows.
        assert!(parse_stream(&["--workers", "0"]).is_err());
        assert!(parse_stream(&["--workers", "2", "--inject-fault", "explode"]).is_err());
        assert!(parse_stream(&["--inject-fault", "stall"]).is_err());
        assert!(parse_stream(&["--window", "sliding:0"]).is_err());
        assert!(parse_stream(&["--window", "decay:1.5"]).is_err());
    }

    #[test]
    fn stream_resume_diffs_spec_flags_against_the_checkpoint() {
        // Parsing does not reject spec flags next to --resume; the given
        // flags are re-applied to the restored spec and diffed against it.
        let ok = parse_stream(&["--resume", "c.json", "--shards", "2"]).unwrap();
        assert!(ok.resume.is_some());
        assert_eq!(ok.spec.shards, 2);
        assert!(parse_stream(&["--frobnicate"]).is_err());
        assert!(parse_stream(&["--shards"]).is_err());
        let conflicts = |flags: &[&str], checkpoint: StreamSpec| {
            let flags = flags.iter().map(|s| s.to_string());
            let given = parse_stream_args(flags, checkpoint).unwrap().spec;
            resume_spec_conflicts(&given, &checkpoint)
        };

        let flags = [
            "--shards",
            "2",
            "--protocol",
            "oue",
            "--eta",
            "0.2",
            "--seed",
            "9",
        ];
        let mut checkpoint = parse_stream(&flags).unwrap().spec;
        // Matching flags produce no conflicts: resuming is allowed.
        assert!(conflicts(&flags, checkpoint).is_empty());
        // Each mismatching field yields one labeled diff line, in spec
        // order.
        checkpoint.shards = 4;
        checkpoint.protocol = ProtocolKind::Grr;
        let lines = conflicts(&flags, checkpoint);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "  --protocol: flag OUE != checkpoint GRR");
        assert_eq!(lines[1], "  --shards: flag 2 != checkpoint 4");
        // Fields never given on the CLI are not diffed, even if different.
        checkpoint.epochs = 99;
        assert_eq!(conflicts(&flags, checkpoint).len(), 2);
        // Attack and window diffs render their checkpoint forms.
        let flags = ["--attack", "mga", "--targets", "7", "--window", "decay:0.5"];
        let mut checkpoint = parse_stream(&flags).unwrap().spec;
        checkpoint.attack = Some(AttackKind::Mga { r: 9 });
        checkpoint.window = WindowMode::Sliding(4);
        assert_eq!(
            conflicts(&flags, checkpoint),
            [
                "  --attack: flag kind=mga r=7 != checkpoint kind=mga r=9",
                "  --window: flag decay:0.5 != checkpoint sliding:4",
            ]
        );
        // A size flag that restates the checkpoint's attack is no conflict:
        // the attack name comes from the checkpoint, not the default `aa`.
        let mga = StreamSpec {
            attack: Some(AttackKind::Mga { r: 9 }),
            ..DEFAULT_SPEC
        };
        assert!(conflicts(&["--targets", "9"], mga).is_empty());
        let multi = StreamSpec {
            attack: Some(AttackKind::MultiAdaptive { attackers: 5 }),
            ..DEFAULT_SPEC
        };
        assert!(conflicts(&["--attackers", "5"], multi).is_empty());
        assert_eq!(
            conflicts(&["--window", "cumulative", "--attackers", "6"], checkpoint),
            ["  --window: flag cumulative != checkpoint sliding:4"],
            "--attackers does not size mga"
        );
    }

    #[test]
    fn arms_flag_parses_registry_names() {
        assert!(parse(&[]).unwrap().arms.is_none(), "default: auto-select");
        let a = parse(&["--arms", "recover,norm-sub,base-cut"]).unwrap();
        let arms = a.arms.expect("explicit arm set");
        assert_eq!(
            arms.kinds(),
            &[ArmKind::Recover, ArmKind::NormSub, ArmKind::BaseCut]
        );
        assert!(parse(&["--arms", "recover,frobnicate"]).is_err());
        assert!(parse(&["--arms", ""]).is_err());
        // The stream subcommand takes the same flag, orthogonal to specs.
        let s = parse_stream(&["--arms", "recover,recover-star"]).unwrap();
        assert_eq!(
            s.arms.unwrap().kinds(),
            &[ArmKind::Recover, ArmKind::RecoverStar]
        );
        let resumed = parse_stream(&["--resume", "c.json", "--arms", "recover"]).unwrap();
        assert!(resumed.arms.is_some(), "--arms is not a spec flag");
    }

    #[test]
    fn stream_arms_are_scored_against_the_window_truth() {
        // In every window mode the `recover` arm recovers on the window's
        // estimate, so scored against the window's truth it reproduces the
        // trajectory's final MSE bit for bit.
        for window in ["cumulative", "sliding:2", "decay:0.5"] {
            let args = parse_stream(&[
                "--epochs",
                "3",
                "--users-per-epoch",
                "2000",
                "--window",
                window,
            ])
            .unwrap();
            let mut engine = StreamEngine::new(args.spec).unwrap();
            engine.run_to_completion().unwrap();
            let scores = score_stream_arms(&engine, &ArmSet::default()).unwrap();
            let last = engine.trajectory().last().unwrap();
            assert_eq!(scores[0].0, "recover");
            assert_eq!(
                scores[0].1.to_bits(),
                last.mse_recovered.to_bits(),
                "{window}: arm {} vs trajectory {}",
                scores[0].1,
                last.mse_recovered
            );
        }
    }

    #[test]
    fn arm_column_labels_fall_back_to_the_key() {
        assert_eq!(arm_column_label("star"), "LDPRecover*");
        assert_eq!(arm_column_label("recover_km"), "LDPRecover-KM");
        assert_eq!(arm_column_label("my_custom_arm"), "my_custom_arm");
    }

    #[test]
    fn output_parent_validation() {
        use std::path::Path;
        // Bare filenames and existing directories pass.
        assert!(validate_output_parent("--json", Some(Path::new("out.json"))).is_ok());
        assert!(validate_output_parent("--json", Some(Path::new("./out.json"))).is_ok());
        let tmp = std::env::temp_dir();
        assert!(validate_output_parent("--json", Some(&tmp.join("out.json"))).is_ok());
        // A missing directory fails with the flag and both paths named.
        let missing = tmp.join("ldp-no-such-dir-ever").join("out.json");
        let err = validate_output_parent("--checkpoint", Some(&missing))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--checkpoint"), "{err}");
        assert!(err.contains("ldp-no-such-dir-ever"), "{err}");
        assert!(err.contains("does not exist"), "{err}");
        // A parent that exists but is a file is just as unwritable.
        let file_parent = tmp.join("ldp-parent-is-a-file");
        ldp_common::write_atomic(&file_parent, "x").unwrap();
        assert!(validate_output_parent("--json", Some(&file_parent.join("out.json"))).is_err());
        std::fs::remove_file(&file_parent).unwrap();
    }
}

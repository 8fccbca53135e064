//! The traced replay: the same work as the library calls in
//! [`crate::workload`], rebuilt from each layer's public functions so a
//! span can be put around every call into a layer.
//!
//! The replay must reproduce the library bit for bit (same RNG draws in
//! the same order, same arithmetic); `tests/replay_equivalence.rs` and
//! the traced run's digest check hold it to that. When the pipeline
//! changes shape, these functions must follow it.
//!
//! Span names are `<layer>.<operation>`; a layer's per-layer metric is
//! the span name with its unit appended (`core.recover` →
//! `core.recover_ms`).

use ldp_attacks::AttackKind;
use ldp_common::rng::{derive_seed, derive_seed2, rng_from_seed};
use ldp_common::{LdpError, Result};
use ldp_protocols::batch::grouped_support_counts;
use ldp_protocols::{AnyProtocol, CountAccumulator, LdpFrequencyProtocol, ProtocolScratch, Report};
use ldp_sim::runner::map_trials_with;
use ldp_sim::stream::ShardDelta;
use ldp_sim::{ExperimentConfig, PipelineOptions, StreamEngine, StreamSpec, TrialResult};
use ldprecover::arm::{BaseCutArm, DetectionArm, NormSubArm, RecoverArm, RecoverStarArm};
use ldprecover::{
    top_k_increase, ArmContext, ArmKind, ArmOutcome, ArmOutput, DefenseArm, KMeansDefense,
};
use rand::{Rng, RngCore};

use crate::trace::Tracer;
use crate::workload::{threads_for, CellOutput, SweepSummary, TrialCell};

/// Genuine reports are perturbed and folded in chunks of this size, as
/// the pipeline does (the chunking draws nothing, so it cannot change
/// results; it keeps the fold's cost shape the same).
const REPORT_CHUNK: usize = 4096;

/// Reusable per-worker buffers, as the pipeline's trial arena keeps.
#[derive(Debug, Default)]
struct ReplayArena {
    chunk: Vec<Report>,
    scratch: ProtocolScratch,
}

/// The aggregation half of a replayed trial.
#[derive(Debug)]
struct Aggregates {
    protocol: AnyProtocol,
    true_freqs: Vec<f64>,
    genuine_freqs: Vec<f64>,
    poisoned_freqs: Vec<f64>,
    malicious_true: Option<Vec<f64>>,
    attack_targets: Option<Vec<usize>>,
    reports: Option<Vec<Report>>,
    malicious_count: usize,
}

/// Replays `run_aggregation_with`: dataset, genuine aggregation
/// (per-user or batched, as `options.aggregation` resolves), attack
/// crafting and the malicious fold.
///
/// # Errors
/// As the pipeline's aggregation.
fn aggregation<R: Rng>(
    config: &ExperimentConfig,
    options: &PipelineOptions,
    rng: &mut R,
    arena: &mut ReplayArena,
    t: &mut Tracer,
) -> Result<Aggregates> {
    config.validate()?;
    let batched = options.aggregation.use_batched(options.needs_reports())?;
    let (protocol, true_freqs, mut reports, mut poisoned, n) = if batched {
        let population = t.span("datasets.generate", |_| {
            config.dataset.generate_counts(config.scale, rng)
        })?;
        let protocol = config.protocol.build(config.epsilon, population.domain())?;
        let counts = t.span("protocols.batch_sample", |_| {
            protocol
                .batch_aggregate_with(population.counts(), rng, &mut arena.scratch)
                .unwrap_or_else(|| grouped_support_counts(&protocol, population.counts(), rng))
        });
        let n = population.len();
        let acc = CountAccumulator::from_parts(counts, n);
        (protocol, population.true_frequencies(), None, acc, n)
    } else {
        let dataset = t.span("datasets.generate", |_| {
            config.dataset.generate(config.scale, rng)
        })?;
        t.count("datasets.users_materialized", dataset.len());
        let domain = dataset.domain();
        let protocol = config.protocol.build(config.epsilon, domain)?;
        let n = dataset.len();
        let mut reports: Option<Vec<Report>> = options
            .needs_reports()
            .then(|| Vec::with_capacity(n + config.malicious_count(n)));
        let mut acc = CountAccumulator::new(domain);
        let chunk = &mut arena.chunk;
        chunk.clear();
        t.span("protocols.perturb_accumulate", |_| {
            let mut flush = |chunk: &mut Vec<Report>| {
                acc.add_batch(&protocol, chunk);
                match reports.as_mut() {
                    Some(buf) => buf.append(chunk),
                    None => chunk.clear(),
                }
            };
            for &item in dataset.items() {
                chunk.push(protocol.perturb(item as usize, rng));
                if chunk.len() == REPORT_CHUNK {
                    flush(chunk);
                }
            }
            flush(chunk);
        });
        (protocol, dataset.true_frequencies(), reports, acc, n)
    };

    let params = protocol.params();
    let domain = protocol.domain();
    let genuine_freqs = poisoned.frequencies(params)?;
    let m = config.malicious_count(n);
    let (malicious_true, attack_targets) = if m > 0 {
        let kind: AttackKind = config
            .attack
            .ok_or_else(|| LdpError::invalid("beta > 0 without an attack"))?;
        let (attack, crafted) = t.span("attacks.craft", |_| {
            let attack = kind.instantiate(domain, rng);
            let crafted = attack.craft(&protocol, m, rng);
            (attack, crafted)
        });
        t.count("attacks.reports_crafted", crafted.len());
        let malicious = t.span("protocols.malicious_fold", |_| {
            let mut malicious = CountAccumulator::new(domain);
            malicious.add_batch(&protocol, &crafted);
            poisoned.merge(&malicious);
            malicious
        });
        let targets = attack.targets().map(<[usize]>::to_vec);
        if let Some(buf) = reports.as_mut() {
            buf.extend(crafted);
        }
        (Some(malicious.frequencies(params)?), targets)
    } else {
        (None, None)
    };
    if let Some(buf) = &reports {
        t.count("protocols.reports_retained", buf.len());
    }
    let poisoned_freqs = poisoned.frequencies(params)?;
    Ok(Aggregates {
        protocol,
        true_freqs,
        genuine_freqs,
        poisoned_freqs,
        malicious_true,
        attack_targets,
        reports,
        malicious_count: m,
    })
}

/// Replays one arm's `DefenseArm::run` under the span `core.<arm>`.
fn run_arm(
    name: &'static str,
    arm: &dyn DefenseArm,
    ctx: &ArmContext<'_>,
    rng: &mut dyn RngCore,
    t: &mut Tracer,
) -> Result<ArmOutcome> {
    t.span(name, |_| arm.run(ctx, rng))
}

/// Replays the fused k-means arm (one clustering pass serves both the
/// `kmeans` and `recover_km` outputs), splitting its two halves into the
/// spans `core.kmeans` and `core.recover_km`.
fn run_kmeans_family(
    ctx: &ArmContext<'_>,
    options: &PipelineOptions,
    rng: &mut dyn RngCore,
    t: &mut Tracer,
) -> Result<ArmOutcome> {
    let protocol = ctx
        .protocol
        .ok_or_else(|| LdpError::invalid("the k-means arms need the protocol instance"))?;
    let reports = ctx
        .reports
        .ok_or_else(|| LdpError::invalid("the k-means arms consume raw reports"))?;
    let outcome = t.span("core.kmeans", |_| {
        options.kmeans.run(protocol, reports, rng)
    })?;
    let mut outputs = Vec::new();
    if options.arms.contains(ArmKind::Kmeans) {
        outputs.push((
            ArmKind::Kmeans.metric_key().to_string(),
            ArmOutput {
                frequencies: outcome.genuine_estimate.clone(),
                malicious_estimate: None,
                track_fg: false,
            },
        ));
    }
    if options.arms.contains(ArmKind::RecoverKm) {
        let recoverer = ctx.recoverer()?;
        let recovered = t.span("core.recover_km", |_| {
            KMeansDefense::recover_from_outcome(&recoverer, protocol, reports, &outcome)
        })?;
        outputs.push((
            ArmKind::RecoverKm.metric_key().to_string(),
            ArmOutput {
                frequencies: recovered.frequencies,
                malicious_estimate: None,
                track_fg: false,
            },
        ));
    }
    Ok(ArmOutcome::Outputs(outputs))
}

/// Replays `apply_recoveries`: target identification, then every
/// selected arm in the order `ArmSet::build` runs them.
///
/// # Errors
/// As the pipeline's recovery half.
fn recoveries<R: Rng>(
    agg: &Aggregates,
    eta: f64,
    options: &PipelineOptions,
    rng: &mut R,
    t: &mut Tracer,
) -> Result<TrialResult> {
    let params = agg.protocol.params();
    let star_targets: Option<Vec<usize>> = if options.arms.needs_targets() {
        match &agg.attack_targets {
            Some(targets) => Some(targets.clone()),
            None if agg.malicious_count > 0 => top_k_increase(
                &agg.poisoned_freqs,
                &agg.genuine_freqs,
                options.star_top_k.max(1),
            )
            .ok(),
            None => None,
        }
    } else {
        None
    };
    let mut ctx = ArmContext::new(&agg.poisoned_freqs, params, eta)
        .with_protocol(&agg.protocol)
        .with_sum_model(options.sum_model)
        .with_post_process(options.post_process);
    if let Some(reports) = &agg.reports {
        ctx = ctx.with_reports(reports);
    }
    if let Some(targets) = &star_targets {
        ctx = ctx.with_targets(targets);
    }

    let mut arms = Vec::new();
    let mut degenerate = Vec::new();
    let mut kmeans_done = false;
    for &kind in options.arms.kinds() {
        let outcome = match kind {
            ArmKind::Recover => run_arm("core.recover", &RecoverArm, &ctx, rng, t)?,
            ArmKind::RecoverStar => run_arm("core.recover_star", &RecoverStarArm, &ctx, rng, t)?,
            ArmKind::Detection => run_arm("core.detection", &DetectionArm, &ctx, rng, t)?,
            ArmKind::NormSub => run_arm("core.norm_sub", &NormSubArm, &ctx, rng, t)?,
            ArmKind::BaseCut => run_arm("core.base_cut", &BaseCutArm, &ctx, rng, t)?,
            ArmKind::Kmeans | ArmKind::RecoverKm if kmeans_done => continue,
            ArmKind::Kmeans | ArmKind::RecoverKm => {
                kmeans_done = true;
                run_kmeans_family(&ctx, options, rng, t)?
            }
        };
        t.count("core.arms_run", 1);
        match outcome {
            ArmOutcome::Outputs(outputs) => {
                t.count("core.arm_outputs", outputs.len());
                arms.extend(outputs);
            }
            ArmOutcome::Degenerate { reason } => degenerate.push((kind.name().to_string(), reason)),
        }
    }

    Ok(TrialResult {
        true_freqs: agg.true_freqs.clone(),
        genuine: agg.genuine_freqs.clone(),
        poisoned: agg.poisoned_freqs.clone(),
        arms,
        degenerate,
        malicious_true: agg.malicious_true.clone(),
        star_targets,
        attack_targets: agg.attack_targets.clone(),
    })
}

/// Replays one cell, fanned over trials exactly as [`crate::workload::run_cell`]
/// does; each trial is one `runner.trial` span holding a
/// `pipeline.aggregation` and one `pipeline.recoveries` span per η.
///
/// # Errors
/// Propagates trial failures.
pub fn cell(cell: &TrialCell, t: &mut Tracer) -> Result<CellOutput> {
    let config = &cell.config;
    config.validate()?;
    let etas = cell
        .etas
        .as_deref()
        .unwrap_or(std::slice::from_ref(&config.eta));
    let origin = t.child();
    let per_trial = map_trials_with(
        config.trials,
        threads_for(config.trials),
        ReplayArena::default,
        |trial, arena| {
            let mut job = origin.child();
            let mut rng = rng_from_seed(derive_seed(config.seed, trial as u64));
            let results = job.span("runner.trial", |job| -> Result<Vec<TrialResult>> {
                let agg = job.span("pipeline.aggregation", |job| {
                    aggregation(config, &cell.options, &mut rng, arena, job)
                })?;
                etas.iter()
                    .map(|&eta| {
                        let mut eta_rng = rng.clone();
                        job.span("pipeline.recoveries", |job| {
                            recoveries(&agg, eta, &cell.options, &mut eta_rng, job)
                        })
                    })
                    .collect()
            })?;
            Ok((results, job))
        },
    )?;
    let mut per_eta: Vec<Vec<TrialResult>> = etas.iter().map(|_| Vec::new()).collect();
    for (results, job) in per_trial {
        t.absorb(job);
        for (slot, result) in per_eta.iter_mut().zip(results) {
            slot.push(result);
        }
    }
    Ok(match cell.etas {
        Some(_) => CellOutput::Sweep(SweepSummary::from_trials(&per_eta)),
        None => CellOutput::Trials(per_eta.swap_remove(0)),
    })
}

/// Replays `shard_epoch_delta`: the cell's derived stream, population
/// histogram, count sampler, attack crafting and malicious fold.
///
/// # Errors
/// As `shard_epoch_delta`.
pub fn shard_delta(
    spec: &StreamSpec,
    shard: usize,
    epoch: usize,
    t: &mut Tracer,
) -> Result<ShardDelta> {
    if shard >= spec.shards {
        return Err(LdpError::invalid(format!("shard {shard} out of range")));
    }
    let mut rng = rng_from_seed(derive_seed2(spec.seed, shard as u64, epoch as u64));
    let users = spec.shard_users(shard);
    let population = t.span("datasets.generate", |_| {
        spec.dataset.generate_user_counts(users, &mut rng)
    })?;
    let domain = population.domain();
    let protocol = spec.protocol.build(spec.epsilon, domain)?;
    let genuine_counts = t.span("protocols.batch_sample", |_| {
        protocol
            .batch_aggregate(population.counts(), &mut rng)
            .unwrap_or_else(|| grouped_support_counts(&protocol, population.counts(), &mut rng))
    });
    let m = spec.malicious_count(users);
    let mut malicious = CountAccumulator::new(domain);
    if m > 0 {
        let kind = spec
            .attack
            .ok_or_else(|| LdpError::invalid("beta > 0 without an attack"))?;
        let crafted = t.span("attacks.craft", |_| {
            kind.instantiate(domain, &mut rng)
                .craft(&protocol, m, &mut rng)
        });
        t.count("attacks.reports_crafted", crafted.len());
        t.span("protocols.malicious_fold", |_| {
            malicious.add_all(&protocol, &crafted);
        });
    }
    Ok(ShardDelta {
        population: population.counts().to_vec(),
        genuine_counts,
        genuine_users: users,
        malicious_counts: malicious.counts().to_vec(),
        malicious_users: m,
    })
}

/// Replays `StreamEngine::step`: every shard's delta (fanned over the
/// same thread count), then `apply_epoch_deltas` (which ends in the
/// boundary recovery). `recovery_snapshot` is then timed on its own
/// (it is pure, so the extra call changes nothing). `inspect` sees the
/// epoch's deltas before they are applied.
///
/// # Errors
/// Propagates delta and merge failures.
pub fn epoch(
    engine: &mut StreamEngine,
    t: &mut Tracer,
    mut inspect: impl FnMut(&[(usize, ShardDelta)], &mut Tracer) -> Result<()>,
) -> Result<()> {
    let spec = *engine.spec();
    let epoch = engine.epochs_done();
    let origin = t.child();
    let jobs = t.span("stream.shard_delta", |_| {
        map_trials_with(
            spec.shards,
            threads_for(spec.shards),
            || (),
            |shard, ()| {
                let mut job = origin.child();
                let delta = job.span("stream.shard_unit", |job| {
                    shard_delta(&spec, shard, epoch, job)
                })?;
                Ok((delta, job))
            },
        )
    })?;
    let mut deltas = Vec::with_capacity(jobs.len());
    for (shard, (delta, job)) in jobs.into_iter().enumerate() {
        t.absorb(job);
        deltas.push((shard, delta));
    }
    inspect(&deltas, t)?;
    t.span("stream.apply", |_| {
        engine.apply_epoch_deltas(epoch, &deltas)
    })?;
    t.span("stream.recover", |_| engine.recovery_snapshot())?;
    Ok(())
}

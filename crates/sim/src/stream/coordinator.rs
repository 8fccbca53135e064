//! The multi-process streaming coordinator.
//!
//! `ldp stream --workers N` promotes the in-memory shard fan-out of
//! [`StreamEngine::step`] to a distributed aggregation service: `N`
//! shard workers run as separate OS processes (the hidden
//! `ldp stream-worker` subcommand), speaking the length-prefixed JSON
//! protocol of [`transport`] over stdio. The coordinator assigns
//! `(shard, epoch)` work units round-robin, collects delta frames in
//! whatever order workers finish, and folds each completed epoch through
//! [`StreamEngine::apply_epoch_deltas`] — the `CountAccumulator` merge
//! monoid (proptest-proven commutative/associative) makes the arrival
//! order irrelevant to the merged bits.
//!
//! **Failover is replay.** Every work unit is a pure function of
//! `(spec, shard, epoch)` via the derived RNG stream layout, and the
//! engine only advances at epoch boundaries, so worker state is
//! disposable by construction. When a worker times out, dies, or sends
//! a torn/unparsable frame, the coordinator kills the process, respawns
//! it after a bounded backoff, and re-sends the unit — the replayed
//! delta is bit-identical to what the lost worker would have produced,
//! which is why a run with an injected mid-epoch crash still emits
//! byte-identical reports and checkpoints to the in-process engine.
//!
//! What workers never see: the engine state. All merging, recovery, and
//! checkpointing stays coordinator-side, so the worker protocol is two
//! message types and the blast radius of a worker failure is one work
//! unit.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use ldp_common::{Json, LdpError, Result};

use super::transport::{self, WorkerRequest, WorkerResponse};
use super::{ShardDelta, StreamEngine};

/// How to launch one shard worker process.
#[derive(Debug, Clone)]
pub struct WorkerLauncher {
    /// The executable (normally the running `ldp` binary itself).
    pub program: PathBuf,
    /// Leading arguments (normally `["stream-worker"]`).
    pub args: Vec<String>,
    /// Extra arguments injected into worker 0's **first** spawn only —
    /// the fault harness (`--inject-fault …`). Respawned workers are
    /// always healthy, so an injected fault exercises exactly one
    /// failover.
    pub first_spawn_extra_args: Vec<String>,
}

impl WorkerLauncher {
    /// Launches workers as `program stream-worker` — the standard shape.
    pub fn for_binary(program: PathBuf) -> Self {
        WorkerLauncher {
            program,
            args: vec!["stream-worker".into()],
            first_spawn_extra_args: Vec::new(),
        }
    }
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Worker process count (≥ 1).
    pub workers: usize,
    /// Per-work-unit reply timeout.
    pub timeout: Duration,
    /// Respawn-and-replay attempts per work unit beyond the first try.
    pub max_retries: usize,
    /// Base backoff between a kill and the respawn; grows linearly with
    /// the attempt number (bounded by `max_retries`).
    pub backoff: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: 2,
            timeout: Duration::from_secs(10),
            max_retries: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// A live worker process plus the reader thread draining its stdout
/// into a channel (so replies can be awaited with a timeout without
/// blocking on the pipe directly).
struct WorkerProcess {
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<Result<Json>>,
}

impl WorkerProcess {
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait(); // reap; the reader thread ends on EOF
    }
}

/// One worker slot: its launch recipe and, when alive, its process.
struct WorkerSlot {
    launcher: WorkerLauncher,
    index: usize,
    spawn_count: usize,
    process: Option<WorkerProcess>,
}

impl WorkerSlot {
    fn new(launcher: WorkerLauncher, index: usize) -> Self {
        WorkerSlot {
            launcher,
            index,
            spawn_count: 0,
            process: None,
        }
    }

    fn spawn(&mut self) -> Result<()> {
        let mut command = Command::new(&self.launcher.program);
        command.args(&self.launcher.args);
        if self.index == 0 && self.spawn_count == 0 {
            command.args(&self.launcher.first_spawn_extra_args);
        }
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        #[expect(
            clippy::disallowed_methods,
            reason = "the audited shard-worker spawn: the coordinator owns every worker process"
        )]
        let mut child = command.spawn().map_err(|e| {
            LdpError::invalid(format!(
                "worker {}: spawning {}: {e}",
                self.index,
                self.launcher.program.display()
            ))
        })?;
        self.spawn_count += 1;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| LdpError::invalid("worker stdin not piped"))?;
        let mut stdout = child
            .stdout
            .take()
            .ok_or_else(|| LdpError::invalid("worker stdout not piped"))?;
        let (tx, frames) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the audited per-worker frame reader: it only forwards frames into the channel the coordinator drains"
        )]
        std::thread::spawn(move || drain_frames(&mut stdout, &tx));
        self.process = Some(WorkerProcess {
            child,
            stdin,
            frames,
        });
        Ok(())
    }

    fn kill(&mut self) {
        if let Some(process) = self.process.take() {
            process.kill();
        }
    }

    /// Runs one `(shard, epoch)` unit with timeout/retry/backoff; on any
    /// worker failure the process is killed, respawned, and the unit
    /// replayed — bit-identical by purity.
    fn request(
        &mut self,
        work: &WorkerRequest,
        domain_size: usize,
        config: &CoordinatorConfig,
    ) -> Result<ShardDelta> {
        let WorkerRequest::Work { shard, epoch, .. } = *work else {
            return Err(LdpError::invalid("request() only carries work units"));
        };
        let mut last_failure = String::new();
        for attempt in 0..=config.max_retries {
            if attempt > 0 {
                // Bounded linear backoff before the replay.
                std::thread::sleep(config.backoff * attempt as u32);
            }
            if self.process.is_none() {
                if let Err(e) = self.spawn() {
                    last_failure = e.to_string();
                    continue;
                }
            }
            let Some(process) = self.process.as_mut() else {
                continue;
            };
            if let Err(e) = transport::write_frame(&mut process.stdin, &work.to_json()) {
                last_failure = format!("send failed: {e}");
                self.kill();
                continue;
            }
            match process.frames.recv_timeout(config.timeout) {
                Ok(Ok(frame)) => match WorkerResponse::from_json(&frame, domain_size) {
                    Ok(WorkerResponse::Delta {
                        shard: got_shard,
                        epoch: got_epoch,
                        delta,
                    }) if got_shard == shard && got_epoch == epoch => return Ok(delta),
                    Ok(WorkerResponse::Delta {
                        shard: got_shard,
                        epoch: got_epoch,
                        ..
                    }) => {
                        last_failure = format!(
                            "answered unit ({got_shard}, {got_epoch}) instead of ({shard}, {epoch})"
                        );
                        self.kill();
                    }
                    Ok(WorkerResponse::Error { message }) => {
                        // Deterministic unit failure: a replay would fail
                        // identically, so abort the run instead.
                        return Err(LdpError::invalid(format!(
                            "worker {} reported unit ({shard}, {epoch}) failed: {message}",
                            self.index
                        )));
                    }
                    Err(e) => {
                        last_failure = format!("malformed response: {e}");
                        self.kill();
                    }
                },
                Ok(Err(e)) => {
                    last_failure = format!("read failed: {e}");
                    self.kill();
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    last_failure = format!("no reply within {:?}", config.timeout);
                    self.kill();
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    last_failure = "worker died (stdout closed)".to_string();
                    self.kill();
                }
            }
        }
        Err(LdpError::invalid(format!(
            "worker {}: unit ({shard}, {epoch}) failed after {} attempts; last failure: {}",
            self.index,
            config.max_retries + 1,
            last_failure
        )))
    }

    /// Orderly shutdown: a shutdown frame, then a bounded wait; workers
    /// that ignore it are killed.
    fn shutdown(&mut self) {
        if let Some(mut process) = self.process.take() {
            let polite =
                transport::write_frame(&mut process.stdin, &WorkerRequest::Shutdown.to_json())
                    .is_ok();
            drop(process.stdin);
            if polite {
                // EOF on the frame channel == worker exited its loop.
                while let Ok(frame) = process.frames.recv_timeout(Duration::from_secs(2)) {
                    drop(frame);
                }
            }
            let _ = process.child.kill();
            let _ = process.child.wait();
        }
    }
}

/// Reader-thread body: drain frames (or one terminal error) into `tx`.
fn drain_frames(stdout: &mut impl Read, tx: &mpsc::Sender<Result<Json>>) {
    loop {
        match transport::read_frame(stdout) {
            Ok(Some(frame)) => {
                if tx.send(Ok(frame)).is_err() {
                    return; // coordinator lost interest (slot killed)
                }
            }
            Ok(None) => return, // clean EOF
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// Drives `engine` to completion over `config.workers` worker processes.
///
/// Shards are assigned round-robin (`shard % workers`); each worker's
/// units run sequentially on its own coordinator thread, epochs complete
/// as a barrier (the engine advances only at epoch boundaries), and
/// deltas are folded in **arrival order** — bit-identical to shard order
/// by the merge monoid. Worker processes persist across epochs; faults
/// trigger kill → backoff → respawn → replay per `WorkerSlot::request`.
///
/// # Errors
/// [`LdpError::InvalidParameter`] for a zero worker count, a work unit
/// that exhausts its retries, or a deterministic worker-side failure;
/// otherwise propagates engine merge/recovery failures.
pub fn drive(
    engine: &mut StreamEngine,
    launcher: &WorkerLauncher,
    config: &CoordinatorConfig,
) -> Result<()> {
    let horizon = engine.spec().epochs;
    drive_with(engine, horizon, launcher, config, |_| Ok(()))
}

/// [`drive`] with a suspension horizon and a per-epoch-boundary hook
/// (the CLI checkpoints there) — the coordinator-side counterpart of the
/// in-process checkpoint-every-epoch loop.
///
/// # Errors
/// As [`drive`]; also propagates the first failing `after_epoch`.
pub fn drive_with<F>(
    engine: &mut StreamEngine,
    horizon: usize,
    launcher: &WorkerLauncher,
    config: &CoordinatorConfig,
    mut after_epoch: F,
) -> Result<()>
where
    F: FnMut(&StreamEngine) -> Result<()>,
{
    if config.workers == 0 {
        return Err(LdpError::invalid("coordinator needs ≥ 1 worker"));
    }
    let spec = *engine.spec();
    let domain_size = spec.domain().size();
    let horizon = horizon.min(spec.epochs);
    let mut slots: Vec<WorkerSlot> = (0..config.workers)
        .map(|index| WorkerSlot::new(launcher.clone(), index))
        .collect();

    let result = (|| {
        while engine.epochs_done() < horizon {
            let epoch = engine.epochs_done();
            // Round-robin unit assignment: slot w owns shards w, w+N, …
            let assignments: Vec<Vec<usize>> = (0..config.workers)
                .map(|w| (w..spec.shards).step_by(config.workers).collect())
                .collect();
            let (tx, rx) = mpsc::channel::<Result<(usize, ShardDelta)>>();
            std::thread::scope(|scope| {
                for (slot, shards) in slots.iter_mut().zip(&assignments) {
                    let tx = tx.clone();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the audited per-slot request thread: deltas merge as a monoid, so arrival order cannot change the result"
                    )]
                    scope.spawn(move || {
                        for &shard in shards {
                            let work = WorkerRequest::Work { spec, shard, epoch };
                            let sent = tx.send(
                                slot.request(&work, domain_size, config)
                                    .map(|delta| (shard, delta)),
                            );
                            if sent.is_err() {
                                return;
                            }
                        }
                    });
                }
                drop(tx);
            });
            // Fold in arrival order — the order the workers finished in,
            // not shard order; the merge monoid makes them bit-equal.
            let mut arrived: Vec<(usize, ShardDelta)> = Vec::with_capacity(spec.shards);
            for outcome in rx {
                arrived.push(outcome?);
            }
            engine.apply_epoch_deltas(epoch, &arrived)?;
            after_epoch(engine)?;
        }
        Ok(())
    })();

    for slot in &mut slots {
        if result.is_ok() {
            slot.shutdown();
        } else {
            slot.kill();
        }
    }
    result
}

/// Convenience wrapper: fresh engine, drive to completion, return it.
///
/// # Errors
/// Propagates [`StreamEngine::new`] and [`drive`].
pub fn run_stream(
    spec: super::StreamSpec,
    launcher: &WorkerLauncher,
    config: &CoordinatorConfig,
) -> Result<StreamEngine> {
    let mut engine = StreamEngine::new(spec)?;
    drive(&mut engine, launcher, config)?;
    Ok(engine)
}

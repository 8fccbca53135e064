//! Windowed recovery modes for the streaming engine.
//!
//! A mode is a window over the stream's epochs, and every window yields
//! one [`WindowAggregate`] that the engine debiases and recovers on, so
//! there is a single estimate path for all three. Cumulative answers
//! "what happened since the stream started"; a long-running aggregator
//! usually wants "what is happening *now*", which the other two answer:
//!
//! * **Cumulative** (the default) — the window that keeps every epoch.
//!   It reads the engine's running total and keeps no state of its own.
//! * **Sliding** — the exact sum of the last `W` epoch sums. Integer
//!   counts, so the windowed estimate is bit-identical to running the
//!   batch estimator over those epochs.
//! * **Decay** — exponentially-decaying counts `S_t = λ·S_{t-1} + Δ_t`
//!   (for truth, genuine, and malicious state alike). The debias map
//!   `f̃(v) = (c − n·q)/((p−q)·n)` is linear in `(c, n)`, so running it
//!   on decayed float counts is the exact decayed mixture of the
//!   per-epoch estimates.
//!
//! Window state only affects what the recovery snapshot *reads*; shard
//! delta computation is untouched, so windowed runs remain bit-identical
//! between the in-process engine and the multi-process coordinator, and
//! across checkpoint/resume (decayed `f64` state round-trips bit-for-bit
//! through the shortest-roundtrip JSON layer).

use std::collections::VecDeque;

use ldp_common::{LdpError, Result};

use super::ShardDelta;

/// Which state the epoch-boundary recovery runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowMode {
    /// Everything since epoch 0 (the PR 4 behavior; the default).
    Cumulative,
    /// The exact sum of the last `W` epochs.
    Sliding(usize),
    /// Exponentially-decaying counts with per-epoch factor `λ ∈ (0,1)`.
    Decay(f64),
}

impl WindowMode {
    /// Parses the CLI/checkpoint surface form: `cumulative`,
    /// `sliding:<epochs>`, or `decay:<lambda>`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on unknown forms or out-of-range
    /// parameters.
    pub fn parse(text: &str) -> Result<Self> {
        let mode = match text.split_once(':') {
            None if text == "cumulative" => WindowMode::Cumulative,
            Some(("sliding", w)) => {
                let w: usize = w
                    .parse()
                    .map_err(|_| LdpError::invalid(format!("sliding window size: {w:?}")))?;
                WindowMode::Sliding(w)
            }
            Some(("decay", l)) => {
                let l: f64 = l
                    .parse()
                    .map_err(|_| LdpError::invalid(format!("decay factor: {l:?}")))?;
                WindowMode::Decay(l)
            }
            _ => {
                return Err(LdpError::invalid(format!(
                    "unknown window mode {text:?} (expected cumulative | sliding:<epochs> | decay:<lambda>)"
                )))
            }
        };
        mode.validate()?;
        Ok(mode)
    }

    /// The surface form [`WindowMode::parse`] accepts; `f64` renders in
    /// shortest-roundtrip decimal so parse(name()) is exact.
    pub fn name(&self) -> String {
        match self {
            WindowMode::Cumulative => "cumulative".to_string(),
            WindowMode::Sliding(w) => format!("sliding:{w}"),
            WindowMode::Decay(l) => format!("decay:{l}"),
        }
    }

    /// Validates the mode's parameter.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for a zero-width sliding window or
    /// a decay factor outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WindowMode::Cumulative => Ok(()),
            WindowMode::Sliding(w) if w >= 1 => Ok(()),
            WindowMode::Sliding(w) => Err(LdpError::invalid(format!(
                "sliding window must span ≥ 1 epoch, got {w}"
            ))),
            WindowMode::Decay(l) if l.is_finite() && l > 0.0 && l < 1.0 => Ok(()),
            WindowMode::Decay(l) => Err(LdpError::invalid(format!(
                "decay factor must lie in (0, 1), got {l}"
            ))),
        }
    }

    /// Whether this mode is the cumulative default (checkpoint/report
    /// JSON omits the field in that case, keeping PR 4 artifacts stable).
    pub fn is_cumulative(&self) -> bool {
        matches!(self, WindowMode::Cumulative)
    }
}

/// The window state the epoch-boundary recovery reads. Every mode
/// yields a [`WindowAggregate`] ([`WindowState::aggregate`]): cumulative
/// mode is the window that keeps every epoch, so it reads the engine's
/// running total and keeps nothing of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowState {
    /// Every epoch since the start: the engine's running total.
    Cumulative,
    /// The last (up to) `W` epoch sums, oldest first.
    Sliding {
        /// Retained epochs, oldest first; capped at the window span.
        history: VecDeque<ShardDelta>,
    },
    /// Exponentially-decayed float state `S_t = λ·S_{t-1} + Δ_t`.
    Decay(WindowAggregate),
}

impl WindowState {
    /// Fresh (nothing-ingested) state for `mode` over a `domain_size`
    /// item domain.
    pub fn new(mode: WindowMode, domain_size: usize) -> Self {
        match mode {
            WindowMode::Cumulative => WindowState::Cumulative,
            WindowMode::Sliding(_) => WindowState::Sliding {
                history: VecDeque::new(),
            },
            WindowMode::Decay(_) => WindowState::Decay(WindowAggregate::zero(domain_size)),
        }
    }

    /// Folds one finished epoch's sum into the window.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the state variant disagrees
    /// with `mode` (a corrupt checkpoint would be the only way there).
    pub fn absorb(&mut self, mode: WindowMode, epoch: ShardDelta) -> Result<()> {
        match (self, mode) {
            (WindowState::Cumulative, WindowMode::Cumulative) => {}
            (WindowState::Sliding { history }, WindowMode::Sliding(span)) => {
                history.push_back(epoch);
                while history.len() > span {
                    history.pop_front();
                }
            }
            (WindowState::Decay(state), WindowMode::Decay(lambda)) => state.fold(lambda, &epoch),
            (state, mode) => {
                return Err(LdpError::invalid(format!(
                    "window state {state:?} does not match window mode {mode:?}"
                )))
            }
        }
        Ok(())
    }

    /// The float aggregate the recovery snapshot reads: the running
    /// `total` (cumulative), the sum of the retained epochs (sliding), or
    /// the decayed state. Integer sums below 2⁵³ are exact in `f64`, so
    /// the cumulative and sliding aggregates are the exact counts.
    pub fn aggregate(&self, total: &ShardDelta) -> WindowAggregate {
        let domain_size = total.population.len();
        match self {
            WindowState::Cumulative => WindowAggregate::sum([total], domain_size),
            WindowState::Sliding { history } => WindowAggregate::sum(history, domain_size),
            WindowState::Decay(state) => state.clone(),
        }
    }
}

/// Float view of a window's counts — the record a snapshot debiases.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Windowed genuine population histogram.
    pub truth: Vec<f64>,
    /// Windowed genuine support counts.
    pub genuine_counts: Vec<f64>,
    /// Windowed genuine report mass.
    pub genuine_reports: f64,
    /// Windowed malicious support counts.
    pub malicious_counts: Vec<f64>,
    /// Windowed malicious report mass.
    pub malicious_reports: f64,
}

impl WindowAggregate {
    fn zero(domain_size: usize) -> Self {
        WindowAggregate {
            truth: vec![0.0; domain_size],
            genuine_counts: vec![0.0; domain_size],
            genuine_reports: 0.0,
            malicious_counts: vec![0.0; domain_size],
            malicious_reports: 0.0,
        }
    }

    fn sum<'a>(epochs: impl IntoIterator<Item = &'a ShardDelta>, domain_size: usize) -> Self {
        let mut agg = WindowAggregate::zero(domain_size);
        for epoch in epochs {
            agg.fold(1.0, epoch);
        }
        agg
    }

    /// `self ← λ·self + delta`, field by field. With `λ = 1` this is a
    /// plain sum (`1·x` is exactly `x`).
    fn fold(&mut self, lambda: f64, delta: &ShardDelta) {
        let fold_into = |state: &mut [f64], fresh: &[u64]| {
            for (slot, &c) in state.iter_mut().zip(fresh) {
                *slot = lambda * *slot + c as f64;
            }
        };
        fold_into(&mut self.truth, &delta.population);
        fold_into(&mut self.genuine_counts, &delta.genuine_counts);
        fold_into(&mut self.malicious_counts, &delta.malicious_counts);
        self.genuine_reports = lambda * self.genuine_reports + delta.genuine_users as f64;
        self.malicious_reports = lambda * self.malicious_reports + delta.malicious_users as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_roundtrip() {
        for text in ["cumulative", "sliding:4", "decay:0.875"] {
            let mode = WindowMode::parse(text).unwrap();
            assert_eq!(mode.name(), text);
            assert_eq!(WindowMode::parse(&mode.name()).unwrap(), mode);
        }
        for bad in [
            "",
            "window",
            "sliding",
            "sliding:0",
            "sliding:x",
            "decay:0",
            "decay:1",
            "decay:nan",
            "decay:-0.5",
            "cumulative:1",
        ] {
            assert!(WindowMode::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn fake_epoch(fill: u64, reports: usize) -> ShardDelta {
        ShardDelta {
            population: vec![fill; 3],
            genuine_counts: vec![fill + 1; 3],
            genuine_users: reports,
            malicious_counts: vec![fill / 2; 3],
            malicious_users: reports / 4,
        }
    }

    #[test]
    fn sliding_window_retains_exactly_the_span() {
        let mode = WindowMode::Sliding(2);
        let mut state = WindowState::new(mode, 3);
        let mut total = ShardDelta::zero(3);
        for fill in 1..=4u64 {
            let epoch = fake_epoch(fill, fill as usize * 10);
            total.merge(&epoch);
            state.absorb(mode, epoch).unwrap();
        }
        let agg = state.aggregate(&total);
        // Epochs 3 and 4 survive: truth 3+4, reports 30+40.
        assert_eq!(agg.truth, vec![7.0; 3]);
        assert_eq!(agg.genuine_reports, 70.0);
    }

    #[test]
    fn decay_state_is_the_exact_geometric_mixture() {
        let mode = WindowMode::Decay(0.5);
        let mut state = WindowState::new(mode, 3);
        state.absorb(mode, fake_epoch(8, 80)).unwrap();
        state.absorb(mode, fake_epoch(2, 20)).unwrap();
        let agg = state.aggregate(&ShardDelta::zero(3));
        // 0.5·8 + 2 = 6 exactly (powers of two: no rounding).
        assert_eq!(agg.truth, vec![6.0; 3]);
        assert_eq!(agg.genuine_reports, 60.0);
    }

    #[test]
    fn mismatched_state_and_mode_is_rejected() {
        let mut state = WindowState::new(WindowMode::Cumulative, 3);
        assert!(state
            .absorb(WindowMode::Sliding(2), fake_epoch(1, 10))
            .is_err());
        // Cumulative mode reads the running total it is handed.
        let agg = state.aggregate(&fake_epoch(4, 40));
        assert_eq!(agg.truth, vec![4.0; 3]);
        assert_eq!(agg.malicious_reports, 10.0);
    }
}

//! Small measurement helpers: quantiles, the epoch profile of a stream
//! run, the process's peak resident set, and the pass/failure tally
//! behind `attempted` and `failed`.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The epoch profile of a stream run: each epoch's shortest time over
/// the run's passes (`passes[pass][epoch]`). Every pass repeats the same
/// seed-determined epochs, so the minimum is that epoch's cost with the
/// least outside load, and percentiles over the profile follow how the
/// program's epochs differ from one another rather than when other
/// tenants of the host burst. Epochs past the shortest pass are dropped.
pub fn epoch_profile(passes: &[Vec<f64>]) -> Vec<f64> {
    let epochs = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..epochs)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Counts attempted and failed operations. An operation is a trial, an
/// epoch, or a cross-check (a repeat's digest, the workers-vs-in-process
/// digest); it fails when it returns an error or misses a check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records `n` operations, of which one per entry in `failures`
    /// failed.
    pub fn record(&mut self, n: usize, failures: Vec<String>) {
        self.attempted += n;
        self.failed += failures.len().min(n);
        self.notes.extend(failures);
    }

    /// Records `n` operations that all failed for one reason.
    pub fn error(&mut self, n: usize, why: String) {
        self.attempted += n;
        self.failed += n;
        self.notes.push(why);
    }

    /// Records one cross-check of `got` against `want`.
    pub fn check_digest(&mut self, what: &str, got: u64, want: u64) {
        let failures = if got == want {
            Vec::new()
        } else {
            vec![format!("{what}: digest {got:016x} != {want:016x}")]
        };
        self.record(1, failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn epoch_profile_takes_each_epochs_minimum() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0]];
        assert_eq!(epoch_profile(&passes), vec![2.0, 1.0]);
        assert!(epoch_profile(&[]).is_empty());
    }

    #[test]
    fn tally_counts_failures_once_per_operation() {
        let mut t = Tally::default();
        t.record(10, vec!["a".into()]);
        t.error(2, "b".into());
        t.check_digest("repeat", 1, 1);
        t.check_digest("repeat", 1, 2);
        assert_eq!((t.attempted, t.failed, t.notes.len()), (14, 4, 3));
    }
}

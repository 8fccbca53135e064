//! Bit-exact result digests.
//!
//! Every float enters the hash by its bit pattern, so two digests agree
//! only when the results are bit-identical. The hash is FNV-1a 64: it
//! only needs to separate results, not resist an adversary.

use ldp_sim::metrics::Stats;
use ldp_sim::stream::{EpochPoint, RecoverySnapshot};
use ldp_sim::TrialResult;

/// An FNV-1a 64 accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The running hash value.
    pub fn value(self) -> u64 {
        self.0
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes an unsigned integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Hashes a float by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Hashes a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Hashes a length-prefixed float slice.
    pub fn floats(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.f64(x));
    }

    /// Hashes an optional float slice (absence is distinct from empty).
    pub fn opt_floats(&mut self, v: Option<&[f64]>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.floats(v);
            }
            None => self.u64(0),
        }
    }

    /// Hashes an optional index list.
    pub fn opt_indices(&mut self, v: Option<&[usize]>) {
        match v {
            Some(v) => {
                self.u64(1 + v.len() as u64);
                v.iter().for_each(|&i| self.u64(i as u64));
            }
            None => self.u64(0),
        }
    }

    /// Hashes everything a trial produced: estimates, every arm output
    /// (key, frequencies, malicious estimate, FG flag), degenerate arms
    /// and target sets.
    pub fn trial(&mut self, r: &TrialResult) {
        self.floats(&r.true_freqs);
        self.floats(&r.genuine);
        self.floats(&r.poisoned);
        self.u64(r.arms.len() as u64);
        for (key, out) in &r.arms {
            self.str(key);
            self.floats(&out.frequencies);
            self.opt_floats(out.malicious_estimate.as_deref());
            self.u64(u64::from(out.track_fg));
        }
        self.u64(r.degenerate.len() as u64);
        for (arm, reason) in &r.degenerate {
            self.str(arm);
            self.str(reason);
        }
        self.opt_floats(r.malicious_true.as_deref());
        self.opt_indices(r.star_targets.as_deref());
        self.opt_indices(r.attack_targets.as_deref());
    }

    /// Hashes summary statistics.
    pub fn stats(&mut self, s: &Stats) {
        self.f64(s.mean);
        self.f64(s.std);
        self.u64(s.count as u64);
    }

    /// Hashes one stream trajectory point.
    pub fn epoch(&mut self, p: &EpochPoint) {
        for x in [p.epoch, p.genuine_users, p.malicious_users, p.reports_seen] {
            self.u64(x as u64);
        }
        for x in [p.mse_before, p.mse_recovered, p.mse_genuine] {
            self.f64(x);
        }
    }

    /// Hashes a stream's final recovery snapshot.
    pub fn snapshot(&mut self, s: &RecoverySnapshot) {
        self.floats(&s.truth);
        self.floats(&s.genuine_estimate);
        self.floats(&s.poisoned_estimate);
        self.floats(&s.recovered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_bit_patterns() {
        let of = |v: &[f64]| {
            let mut d = Digest::default();
            d.floats(v);
            d.value()
        };
        assert_eq!(of(&[1.0, 2.0]), of(&[1.0, 2.0]));
        assert_ne!(of(&[0.0]), of(&[-0.0]), "sign of zero is a bit");
        assert_ne!(of(&[1.0]), of(&[1.0, 0.0]), "lengths are hashed");
    }
}

//! The in-memory dataset representation.

use std::io::BufRead;
use std::path::Path;

use ldp_common::float::exact_eq;
use ldp_common::rng::uniform_index;
use ldp_common::{Domain, LdpError, Result};
use rand::Rng;

/// A materialized user population: each entry is one user's private item.
///
/// Items are dense `u32` indices into the domain (the paper's datasets map
/// "city" / "unit ID" strings to indices once, offline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    name: String,
    domain: Domain,
    items: Vec<u32>,
}

impl Dataset {
    /// Wraps an item vector, validating domain membership.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] for zero users;
    /// [`LdpError::DomainMismatch`] for out-of-domain items.
    pub fn from_items(name: impl Into<String>, domain: Domain, items: Vec<u32>) -> Result<Self> {
        if items.is_empty() {
            return Err(LdpError::EmptyInput("dataset items"));
        }
        if let Some(&bad) = items.iter().find(|&&v| !domain.contains(v as usize)) {
            return Err(LdpError::DomainMismatch {
                expected: domain.size(),
                got: bad as usize,
                context: "dataset item",
            });
        }
        Ok(Self {
            name: name.into(),
            domain,
            items,
        })
    }

    /// Loads a dataset from a text file with one item index per line
    /// (blank lines and `#` comments skipped) — the hook for plugging in
    /// the paper's real IPUMS / Fire extracts.
    ///
    /// # Errors
    /// I/O failures, unparsable lines (with line numbers), out-of-domain
    /// items, or an empty file.
    pub fn from_item_file(
        name: impl Into<String>,
        domain: Domain,
        path: impl AsRef<Path>,
    ) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        let mut items = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let value: u32 = trimmed.parse().map_err(|e| LdpError::Parse {
                line: idx + 1,
                message: format!("expected item index, got '{trimmed}': {e}"),
            })?;
            items.push(value);
        }
        Self::from_items(name, domain, items)
    }

    /// Dataset name (for experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The item domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of users `n`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the dataset has no users (never constructible).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The users' items.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Exact item counts.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.domain.size()];
        for &v in &self.items {
            counts[v as usize] += 1;
        }
        counts
    }

    /// The ground-truth frequency vector `f_X` (sums to 1).
    pub fn true_frequencies(&self) -> Vec<f64> {
        let n = self.items.len() as f64;
        self.counts().iter().map(|&c| c as f64 / n).collect()
    }

    /// A uniform random subsample with `⌈fraction·n⌉` users (the harness's
    /// `--scale` knob; MSE scales as `1/n` uniformly across methods so
    /// method ordering is preserved — see `tests/scale_invariance.rs`).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `fraction ∉ (0, 1]`.
    pub fn subsample<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> Result<Self> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(LdpError::invalid(format!(
                "subsample fraction must be in (0,1], got {fraction}"
            )));
        }
        if exact_eq(fraction, 1.0) {
            return Ok(self.clone());
        }
        let target = ((self.items.len() as f64) * fraction).ceil() as usize;
        let target = target.max(1);
        // Uniform with replacement: preserves expected frequencies and is
        // O(target) regardless of n.
        let items = (0..target)
            .map(|_| self.items[uniform_index(rng, self.items.len())])
            .collect();
        Self::from_items(format!("{}@{fraction}", self.name), self.domain, items)
    }
}

/// A population materialized only as per-item counts — no item array.
///
/// The count-based batched aggregation engine never looks at individual
/// users, so trials that run it can sample the population histogram
/// directly (`Multinomial(n, f)` — the exact distribution of the counts of
/// `n` iid item draws) and skip the `O(n)` item materialization entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationCounts {
    name: String,
    domain: Domain,
    counts: Vec<u64>,
    total: usize,
}

impl PopulationCounts {
    /// Wraps a count vector, validating shape and non-emptiness.
    ///
    /// # Errors
    /// [`LdpError::DomainMismatch`] when `counts` does not cover the
    /// domain; [`LdpError::EmptyInput`] when all counts are zero.
    pub fn from_counts(name: impl Into<String>, domain: Domain, counts: Vec<u64>) -> Result<Self> {
        if counts.len() != domain.size() {
            return Err(LdpError::DomainMismatch {
                expected: domain.size(),
                got: counts.len(),
                context: "population count vector",
            });
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(LdpError::EmptyInput("population counts"));
        }
        Ok(Self {
            name: name.into(),
            domain,
            counts,
            total: total as usize,
        })
    }

    /// Population name (for experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The item domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of users `n`.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when the population has no users (never constructible).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact item counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The ground-truth frequency vector `f_X` (sums to 1).
    pub fn true_frequencies(&self) -> Vec<f64> {
        let n = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }
}

impl Dataset {
    /// This dataset's count-level view (drops the item array).
    pub fn to_counts(&self) -> PopulationCounts {
        PopulationCounts {
            name: self.name.clone(),
            domain: self.domain,
            counts: self.counts(),
            total: self.items.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;

    fn tiny() -> Dataset {
        Dataset::from_items("tiny", Domain::new(4).unwrap(), vec![0, 1, 1, 2, 2, 2]).unwrap()
    }

    #[test]
    fn construction_validates() {
        let d = Domain::new(3).unwrap();
        assert!(Dataset::from_items("x", d, vec![]).is_err());
        assert!(Dataset::from_items("x", d, vec![0, 3]).is_err());
        assert!(Dataset::from_items("x", d, vec![0, 2]).is_ok());
    }

    #[test]
    fn counts_and_frequencies() {
        let ds = tiny();
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.counts(), vec![1, 2, 3, 0]);
        let f = ds.true_frequencies();
        assert!((f[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((f[2] - 0.5).abs() < 1e-12);
        assert_eq!(f[3], 0.0);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subsample_preserves_distribution() {
        let domain = Domain::new(3).unwrap();
        let mut items = vec![0u32; 60_000];
        items.extend(vec![1u32; 30_000]);
        items.extend(vec![2u32; 10_000]);
        let ds = Dataset::from_items("big", domain, items).unwrap();
        let mut rng = rng_from_seed(1);
        let sub = ds.subsample(0.1, &mut rng).unwrap();
        assert_eq!(sub.len(), 10_000);
        let f = sub.true_frequencies();
        assert!((f[0] - 0.6).abs() < 0.03);
        assert!((f[1] - 0.3).abs() < 0.03);
        assert!((f[2] - 0.1).abs() < 0.03);
    }

    #[test]
    fn subsample_validates_and_full_is_identity() {
        let ds = tiny();
        let mut rng = rng_from_seed(2);
        assert!(ds.subsample(0.0, &mut rng).is_err());
        assert!(ds.subsample(1.5, &mut rng).is_err());
        let full = ds.subsample(1.0, &mut rng).unwrap();
        assert_eq!(full.items(), ds.items());
    }

    #[test]
    fn population_counts_mirror_dataset_views() {
        let ds = tiny();
        let pop = ds.to_counts();
        assert_eq!(pop.len(), ds.len());
        assert_eq!(pop.counts(), &ds.counts()[..]);
        assert_eq!(pop.true_frequencies(), ds.true_frequencies());
        assert_eq!(pop.domain(), ds.domain());
        assert!(!pop.is_empty());
    }

    #[test]
    fn population_counts_validate() {
        let d = Domain::new(3).unwrap();
        assert!(PopulationCounts::from_counts("x", d, vec![1, 2]).is_err());
        assert!(PopulationCounts::from_counts("x", d, vec![0, 0, 0]).is_err());
        let pop = PopulationCounts::from_counts("x", d, vec![0, 4, 1]).unwrap();
        assert_eq!(pop.len(), 5);
        assert_eq!(pop.name(), "x");
    }

    #[test]
    fn file_loader_roundtrip() {
        let dir = std::env::temp_dir().join("ldprecover-test-datasets");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("items.txt");
        ldp_common::write_atomic(&path, "# comment\n0\n1\n\n2\n1\n").unwrap();
        let ds = Dataset::from_item_file("file", Domain::new(3).unwrap(), &path).unwrap();
        assert_eq!(ds.items(), &[0, 1, 2, 1]);

        ldp_common::write_atomic(&path, "0\nnot-a-number\n").unwrap();
        let err = Dataset::from_item_file("file", Domain::new(3).unwrap(), &path).unwrap_err();
        assert!(matches!(err, LdpError::Parse { line: 2, .. }));

        ldp_common::write_atomic(&path, "7\n").unwrap();
        assert!(Dataset::from_item_file("file", Domain::new(3).unwrap(), &path).is_err());
    }
}

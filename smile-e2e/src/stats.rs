//! The benchmark's own arithmetic: order statistics, failure accounting,
//! push-tick classification, ingest ordering and the determinism digest.
//! Kept free of platform state so every rule is unit-tested here.

use smile::storage::DeltaBatch;
use smile::types::RelationId;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of a sorted sample (mean of the two middle values when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of a sample.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Index into a sorted sample of its tail value: p99 (nearest rank) when
/// the sample is large enough, else the highest percentile that still
/// leaves [`TAIL_BEYOND`] samples strictly beyond it. `None` when fewer
/// than `TAIL_BEYOND + 1` samples exist.
pub fn tail_index(n: usize) -> Option<usize> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99 = (99 * n).div_ceil(100) - 1;
    Some(p99.min(n - 1 - TAIL_BEYOND))
}

/// The tail value of a sorted sample and the percentile it sits at.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let k = tail_index(sorted.len())?;
    Some((sorted[k], 100.0 * (k + 1) as f64 / sorted.len() as f64))
}

/// Sorts a sample for the order statistics above.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed operations. An operation fails when it returns
/// an error, is rejected, or (for an MV check) differs from ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailLedger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl FailLedger {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a `Result`, returning its success value if any.
    pub fn check<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.record(r.is_ok());
        r.ok()
    }

    /// Adds another ledger's counts.
    pub fn absorb(&mut self, other: FailLedger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A driven tick is a push tick when the executor's wave-job counter moved
/// during it: at least one edge job ran.
pub fn is_push_tick(jobs_before: u64, jobs_after: u64) -> bool {
    jobs_after > jobs_before
}

/// Puts one tick's batches into ingest order: ascending relation id, so
/// the order no longer depends on the generator's hash-map iteration.
/// Batches of the same relation keep their relative order.
pub fn order_batches(mut batches: Vec<(RelationId, DeltaBatch)>) -> Vec<(RelationId, DeltaBatch)> {
    batches.sort_by_key(|(rel, _)| *rel);
    batches
}

/// FNV-1a over everything written into it: the run's determinism digest.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile::storage::delta::DeltaEntry;
    use smile::types::{tuple, Timestamp};
    use std::fmt::Write as _;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn mean_weights_every_sample() {
        assert_eq!(mean(&[2.0]), 2.0);
        // A two-cluster sample: the mean moves with both clusters.
        assert_eq!(mean(&[1.0, 1.0, 1.0, 25.0]), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_index(0), None);
        assert_eq!(tail_index(10), None);
        // With 11 samples only the minimum has 10 beyond it.
        assert_eq!(tail_index(11), Some(0));
        for n in 11..5000 {
            let k = tail_index(n).unwrap();
            assert!(n - 1 - k >= TAIL_BEYOND, "n={n}: only {} beyond", n - 1 - k);
        }
    }

    #[test]
    fn tail_is_p99_once_the_sample_allows_it() {
        // 1000 samples: p99 nearest rank is the 990th value, 10 beyond.
        assert_eq!(tail(&ramp(1000)), Some((990.0, 99.0)));
        // 5000 samples: the 4950th value, 50 beyond.
        assert_eq!(tail(&ramp(5000)), Some((4950.0, 99.0)));
        // 300 samples (a 300-tick drive): capped at the 290th value.
        let (v, pct) = tail(&ramp(300)).unwrap();
        assert_eq!(v, 290.0);
        assert!((pct - 96.666).abs() < 0.01);
    }

    #[test]
    fn tail_of_unsorted_input_uses_sorted_order() {
        let mut v = ramp(100);
        v.reverse();
        let (x, _) = tail(&sorted(v)).unwrap();
        assert_eq!(x, 90.0);
    }

    #[test]
    fn fail_ledger_counts_errors_rejections_and_mismatches() {
        let mut l = FailLedger::default();
        assert_eq!(l.share(), 0.0);
        assert_eq!(l.check::<u8, ()>(Ok(1)), Some(1));
        assert_eq!(l.check::<u8, ()>(Err(())), None);
        l.record(true); // MV check that matched
        l.record(false); // MV check that differed
        assert_eq!(
            l,
            FailLedger {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(l.share(), 0.5);
        let mut total = FailLedger::default();
        total.absorb(l);
        total.absorb(FailLedger {
            attempted: 6,
            failed: 0,
        });
        assert_eq!(total.share(), 0.2);
    }

    #[test]
    fn push_ticks_are_ticks_that_ran_wave_jobs() {
        assert!(!is_push_tick(7, 7));
        assert!(is_push_tick(7, 8));
        let jobs = [0u64, 0, 3, 3, 5, 5, 5];
        let pushes = jobs.windows(2).filter(|w| is_push_tick(w[0], w[1])).count();
        assert_eq!(pushes, 2);
    }

    #[test]
    fn batches_ingest_in_relation_order_and_keep_contents() {
        let b = |v: i64| DeltaBatch {
            entries: vec![DeltaEntry::insert(tuple![v], Timestamp::from_secs(1))],
        };
        let r = RelationId::new;
        let got = order_batches(vec![(r(5), b(1)), (r(0), b(2)), (r(3), b(3)), (r(0), b(4))]);
        let rels: Vec<u32> = got.iter().map(|(rel, _)| rel.index() as u32).collect();
        assert_eq!(rels, vec![0, 0, 3, 5]);
        // Same-relation batches keep their generation order.
        assert_eq!(got[0].1, b(2));
        assert_eq!(got[1].1, b(4));
        assert_eq!(got[3].1, b(1));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.u64(1);
        write!(a, "x").unwrap();
        let mut b = Digest::new();
        b.u64(1);
        write!(b, "x").unwrap();
        assert_eq!(a.hex(), b.hex());
        let mut c = Digest::new();
        write!(c, "x").unwrap();
        c.u64(1);
        assert_ne!(a.hex(), c.hex());
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }
}

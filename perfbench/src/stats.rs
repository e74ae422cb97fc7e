//! Sample summaries and result digests.

/// Median of `samples` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Percentiles tried by [`tail`], highest first. The ladder stops at
/// p99, the highest percentile the benchmark reports.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must rank beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// A tail percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The nearest-rank sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The highest percentile of the ladder 99, 95, 90, 75, 50 that
/// has at least [`TAIL_SUPPORT`] samples ranked beyond it (nearest-rank
/// definition; tied values count by rank). `None` when even the median
/// lacks that support.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let idx = rank.max(1) - 1;
        (n >= 1 && n - 1 - idx >= TAIL_SUPPORT).then(|| Tail {
            pct,
            value: s[idx],
            samples: n,
        })
    })
}

/// Timings of repeatable units of work: a fit on one input instance, a
/// stretch of a stream replayed from a saved state, one round of a
/// protocol run. A unit does the same work every time it runs, so its
/// fastest repetition is the one least slowed by other processes, which
/// only ever add time. Repetitions of a unit are spread over the run,
/// so a slow stretch of the machine rarely covers all of them.
#[derive(Debug, Clone)]
pub struct Fastest {
    best: Vec<f64>,
    samples: usize,
}

impl Fastest {
    /// Timings of `units` units.
    pub fn new(units: usize) -> Self {
        Fastest {
            best: vec![f64::INFINITY; units],
            samples: 0,
        }
    }

    /// Records a repetition of unit `u` that took `secs`.
    pub fn record(&mut self, u: usize, secs: f64) {
        self.best[u] = self.best[u].min(secs);
        self.samples += 1;
    }

    fn run(&self) -> Vec<f64> {
        self.best
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .collect()
    }

    /// The median over units of their fastest repetition (`NaN` before
    /// any was recorded).
    pub fn median(&self) -> f64 {
        median(&self.run())
    }

    /// The mean over units of their fastest repetition (`NaN` before
    /// any was recorded).
    pub fn mean(&self) -> f64 {
        let run = self.run();
        run.iter().sum::<f64>() / run.len() as f64
    }

    /// The sum over units of their fastest repetition.
    pub fn sum(&self) -> f64 {
        self.run().iter().sum()
    }

    /// Repetitions recorded.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over 64-bit words: a stable digest of labels and float bits,
/// printed with every result so a change to the outputs shows even
/// when rounded metrics read the same.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every label.
    pub fn labels(&mut self, labels: &[usize]) {
        labels.iter().for_each(|&l| self.word(l as u64));
    }

    /// Folds the bit patterns of `values`.
    pub fn floats(&mut self, values: &[f64]) {
        values.iter().for_each(|v| self.word(v.to_bits()));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Tiny samples: not even the median has ten samples beyond it.
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0; 19]), None);
        // 20 samples: the median (rank 10) has exactly ten beyond.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Some(Tail {
                pct: 50.0,
                value: 10.0,
                samples: 20
            })
        );
    }

    #[test]
    fn tail_reaches_p99_at_one_thousand_samples() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().pct, 95.0);
    }

    #[test]
    fn tied_samples_count_by_rank() {
        let mut s = vec![5.0; 1000];
        s[999] = 7.0;
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 5.0));
    }

    #[test]
    fn fastest_keeps_each_unit_best() {
        let mut f = Fastest::new(3);
        assert!(f.median().is_nan());
        f.record(0, 2.0);
        f.record(0, 1.0);
        f.record(1, 5.0);
        // Unit 2 never ran; the summaries are over the two that did.
        assert_eq!((f.median(), f.mean(), f.sum()), (3.0, 3.0, 6.0));
        f.record(2, 4.0);
        assert_eq!((f.median(), f.samples()), (4.0, 4));
        assert_eq!((f.mean(), f.sum()), (10.0 / 3.0, 10.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.floats(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert_ne!(a.value(), b.value());
    }
}

//! Pairwise additive masking for secure aggregation — the algebra
//! behind [`MaskedStats`].
//!
//! **Bit-domain masking.** A client's [`LocalStats`] is serialized to
//! 64-bit words (`f64` sums as bit patterns, counts, one inertia bit
//! pattern) and masked with *wrapping* adds/subtracts in `ℤ_{2^64}`.
//! Every pair of round members `(i, j)` shares a stream of words
//! derived from `(seed, min(i,j), max(i,j), round)`; the lower id adds
//! the stream, the higher id subtracts it — antisymmetry — so the
//! wrapping sum of *all* members' masks is exactly zero. Masking the
//! bits rather than the float values is deliberate: float addition
//! rounds, so `f64`-valued masks could never cancel bitwise, while
//! wrapping integer masks cancel exactly. The server removes each
//! reporter's masks before the usual ascending-client-order float
//! merge, which is why a masked run is **bitwise identical** to an
//! unmasked one (CI-enforced).
//!
//! **Dropped-client recovery.** Because every pair stream is a pure
//! function of `(seed, i, j, round)`, the server can reconstruct a
//! dropped member's mask contributions from the round's survivor set —
//! [`unmask_stats`] subtracts reporter `i`'s masks against the *full*
//! member list of the round's [`MaskSpec`], dropped peers included, so
//! a straggler's disappearance never corrupts the aggregate.
//!
//! **Privacy model, stated honestly.** This reproduces the aggregation
//! algebra of pairwise-mask secure aggregation (Bonawitz et al. 2017),
//! not its cryptography: the mask seed travels in the clear inside the
//! broadcast, so the transport carrier can unmask anything. The value
//! here is protocol-shape fidelity — masked uploads, exact
//! cancellation, survivor-set recovery — under the repo's determinism
//! contract. Swapping the seeded streams for Diffie-Hellman-agreed
//! pairwise secrets would upgrade the privacy without touching the
//! algebra.

use crate::protocol::{LocalStats, MaskSpec, MaskedStats};
use kr_core::stats::SuffStats;
use kr_core::{CoreError, Result};
use kr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// SplitMix64 finalizer: the avalanche step decorrelating pair keys.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of the shared stream for the unordered pair `{a, b}` at
/// `round`. Symmetric in `a`/`b` (both ends derive the same stream) and
/// decorrelated across pairs and rounds.
pub fn pair_key(seed: u64, a: u32, b: u32, round: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut h = splitmix(seed);
    h = splitmix(h ^ lo as u64);
    h = splitmix(h ^ hi as u64);
    splitmix(h ^ round as u64)
}

/// Serializes one round's statistics to the masked-upload word layout:
/// `rows·m` sum bit-patterns (row-major), `k` counts, `1` inertia
/// bit-pattern.
pub fn stats_to_words(stats: &LocalStats) -> Vec<u64> {
    let mut words = Vec::with_capacity(stats.stats.sums.len() + stats.stats.counts.len() + 1);
    words.extend(stats.stats.sums.as_slice().iter().map(|v| v.to_bits()));
    words.extend(stats.stats.counts.iter().copied());
    words.push(stats.inertia.to_bits());
    words
}

/// Rebuilds [`LocalStats`] from the word layout of `rows x m` sums and
/// `k` counts — the exact inverse of [`stats_to_words`] (bit patterns
/// round-trip, so a mask/unmask cycle is lossless).
pub fn words_to_stats(
    round: u32,
    (rows, k, m): (usize, usize, usize),
    words: &[u64],
) -> Result<LocalStats> {
    let want = MaskedStats::word_count(rows, k, m);
    if words.len() != want {
        return Err(CoreError::Transport(format!(
            "masked upload has {} words, expected {want} for rows={rows} k={k} m={m}",
            words.len(),
        )));
    }
    // The count matched, so `rows·m + k + 1` did not saturate.
    let n_sums = rows * m;
    let sums = if rows == 0 || m == 0 {
        Matrix::zeros(rows, m)
    } else {
        let data: Vec<f64> = words[..n_sums].iter().map(|&w| f64::from_bits(w)).collect();
        Matrix::from_vec(rows, m, data)
            .map_err(|_| CoreError::Transport("masked upload shape".into()))?
    };
    let counts = words[n_sums..n_sums + k].to_vec();
    let inertia = f64::from_bits(words[n_sums + k]);
    Ok(LocalStats {
        round,
        stats: SuffStats { sums, counts },
        inertia,
    })
}

/// Applies (or, with `invert`, removes) client `id`'s pairwise masks to
/// `words` in place: for every other member, wrapping-add the pair
/// stream if `id` is the lower end, wrapping-subtract otherwise.
fn combine(words: &mut [u64], spec: &MaskSpec, id: u32, round: u32, invert: bool) {
    for &other in &spec.members {
        if other == id {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(pair_key(spec.seed, id, other, round));
        let add = (id < other) != invert;
        for w in words.iter_mut() {
            let r = rng.next_u64();
            *w = if add {
                w.wrapping_add(r)
            } else {
                w.wrapping_sub(r)
            };
        }
    }
}

/// Masks `words` in place as client `id` (the client side).
pub fn mask_words(words: &mut [u64], spec: &MaskSpec, id: u32, round: u32) {
    combine(words, spec, id, round, false);
}

/// Removes client `id`'s masks from `words` in place (the server side;
/// also the recovery path for masks shared with dropped members).
pub fn unmask_words(words: &mut [u64], spec: &MaskSpec, id: u32, round: u32) {
    combine(words, spec, id, round, true);
}

/// The client side: serialize, mask, wrap for the wire.
pub fn mask_stats(stats: &LocalStats, spec: &MaskSpec, id: u32) -> MaskedStats {
    let mut words = stats_to_words(stats);
    mask_words(&mut words, spec, id, stats.round);
    MaskedStats {
        round: stats.round,
        rows: stats.stats.sums.nrows() as u32,
        k: stats.stats.counts.len() as u32,
        m: stats.stats.sums.ncols() as u32,
        words,
    }
}

/// The server side: remove reporter `id`'s masks and rebuild its exact
/// plaintext statistics.
pub fn unmask_stats(masked: &MaskedStats, spec: &MaskSpec, id: u32) -> Result<LocalStats> {
    let mut words = masked.words.clone();
    unmask_words(&mut words, spec, id, masked.round);
    let layout = (masked.rows as usize, masked.k as usize, masked.m as usize);
    words_to_stats(masked.round, layout, &words)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(round: u32, salt: u64) -> LocalStats {
        let mut stats = SuffStats::zeros(2, 3);
        for (i, v) in stats.sums.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 + salt as f64) * 0.37 - 1.0;
        }
        stats.counts = vec![salt, salt.wrapping_mul(7)];
        LocalStats {
            round,
            stats,
            inertia: 3.25 + salt as f64,
        }
    }

    #[test]
    fn masks_cancel_over_all_members() {
        let spec = MaskSpec {
            seed: 99,
            members: vec![0, 3, 4, 9],
        };
        let len = 11usize;
        let mut sum = vec![0u64; len];
        for &id in &spec.members {
            let mut words = vec![0u64; len];
            mask_words(&mut words, &spec, id, 6);
            for (s, w) in sum.iter_mut().zip(&words) {
                *s = s.wrapping_add(*w);
            }
        }
        assert_eq!(sum, vec![0u64; len], "antisymmetric masks must cancel");
    }

    #[test]
    fn mask_unmask_round_trips_bitwise() {
        let spec = MaskSpec {
            seed: 7,
            members: vec![1, 2, 5],
        };
        for &id in &spec.members {
            let stats = sample_stats(3, id as u64 + 1);
            let masked = mask_stats(&stats, &spec, id);
            // The masked words differ from the plaintext words (the
            // masks actually did something)…
            assert_ne!(masked.words, stats_to_words(&stats));
            // …and unmasking restores every bit.
            let back = unmask_stats(&masked, &spec, id).unwrap();
            assert_eq!(back, stats);
            assert_eq!(back.inertia.to_bits(), stats.inertia.to_bits());
        }
    }

    #[test]
    fn streams_differ_across_pairs_and_rounds() {
        assert_eq!(pair_key(1, 2, 5, 0), pair_key(1, 5, 2, 0), "symmetric");
        assert_ne!(pair_key(1, 2, 5, 0), pair_key(1, 2, 5, 1), "per round");
        assert_ne!(pair_key(1, 2, 5, 0), pair_key(1, 2, 6, 0), "per pair");
        assert_ne!(pair_key(2, 2, 5, 0), pair_key(1, 2, 5, 0), "per seed");
    }

    #[test]
    fn unmask_rejects_bad_word_count() {
        let spec = MaskSpec {
            seed: 1,
            members: vec![0, 1],
        };
        let bad = MaskedStats {
            round: 0,
            rows: 2,
            k: 2,
            m: 3,
            words: vec![0; 4],
        };
        assert!(unmask_stats(&bad, &spec, 0).is_err());
        // A header whose shape multiplies past usize is refused, not
        // allocated or overflowed.
        let huge = MaskedStats {
            rows: u32::MAX,
            k: u32::MAX,
            m: u32::MAX,
            ..bad
        };
        assert!(unmask_stats(&huge, &spec, 0).is_err());
    }
}

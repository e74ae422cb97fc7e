//! Property-based coverage of the pairwise-masking algebra
//! ([`kr_federated::mask`]): antisymmetric pair masks cancel exactly in
//! ℤ_{2^64} for **arbitrary** member sets, shapes, and rounds; per-
//! reporter unmasking is bitwise exact even when members of the pair
//! streams dropped out; and the word serialization round-trips every
//! `f64` bit pattern, NaNs and infinities included.

use kr_core::stats::SuffStats;
use kr_federated::mask;
use kr_federated::protocol::{LocalStats, MaskSpec, MaskedStats};
use kr_linalg::Matrix;
use proptest::prelude::*;

/// A sorted, deduplicated member list — the shape the server builds
/// from the active client set.
fn members() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..40, 1..8).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Raw `f64` bit patterns for `rows x m` sums and `k` counts, not
/// sampled values: masking operates on bits, so the properties must
/// hold for NaN payloads and infinities too.
fn raw_stats(
    (rows, k, m): (usize, usize, usize),
) -> impl Strategy<Value = (Vec<u64>, Vec<u64>, u64)> {
    (
        proptest::collection::vec(0u64..u64::MAX, rows * m),
        proptest::collection::vec(0u64..1u64 << 48, k),
        0u64..u64::MAX,
    )
}

fn build_stats(
    round: u32,
    (rows, _, m): (usize, usize, usize),
    raw: (Vec<u64>, Vec<u64>, u64),
) -> LocalStats {
    let (bits, counts, inertia_bits) = raw;
    LocalStats {
        round,
        inertia: f64::from_bits(inertia_bits),
        stats: SuffStats {
            sums: Matrix::from_vec(rows, m, bits.into_iter().map(f64::from_bits).collect())
                .unwrap(),
            counts,
        },
    }
}

/// `(rows, k, m)`: cell layouts (`rows == k`) and marginal ones, where
/// the sum-row count differs from `k`.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 1usize..=4).prop_flat_map(|(h1, h2, m)| {
        prop_oneof![Just((h1 * h2, h1 * h2, m)), Just((h1 + h2, h1 * h2, m))]
    })
}

fn assert_stats_bitwise_eq(a: &LocalStats, b: &LocalStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    prop_assert_eq!(&a.stats.counts, &b.stats.counts);
    for (x, y) in a.stats.sums.as_slice().iter().zip(b.stats.sums.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

proptest! {
    #[test]
    fn masks_cancel_over_the_full_member_set(
        members in members(),
        seed in 0u64..u64::MAX,
        round in 0u32..64,
        len in 1usize..32,
    ) {
        // Zero payloads isolate the masks themselves: summing every
        // member's masked words must wrap back to exactly zero.
        let spec = MaskSpec { seed, members: members.clone() };
        let mut acc = vec![0u64; len];
        for &id in &members {
            let mut words = vec![0u64; len];
            mask::mask_words(&mut words, &spec, id, round);
            for (a, w) in acc.iter_mut().zip(&words) {
                *a = a.wrapping_add(*w);
            }
        }
        prop_assert_eq!(acc, vec![0u64; len]);
    }

    #[test]
    fn unmask_is_bitwise_exact_per_reporter(
        case in (members(), 0u64..u64::MAX, shape(), 0u32..16, 0usize..8).prop_flat_map(
            |(members, seed, layout, round, idx)| {
                raw_stats(layout).prop_map(move |raw| {
                    (members.clone(), seed, round, idx, build_stats(round, layout, raw))
                })
            },
        ),
    ) {
        // Masking then unmasking one reporter reproduces its plaintext
        // statistics bit for bit — independent of which *other* members
        // contributed masks, i.e. dropped peers need no recovery round.
        let (members, seed, round, idx, stats) = case;
        let id = members[idx % members.len()];
        let spec = MaskSpec { seed, members };
        let masked = mask::mask_stats(&stats, &spec, id);
        prop_assert_eq!(masked.round, round);
        let back = mask::unmask_stats(&masked, &spec, id).unwrap();
        assert_stats_bitwise_eq(&back, &stats)?;
    }

    #[test]
    fn word_serialization_round_trips_all_bit_patterns(
        case in (shape(), 0u32..16).prop_flat_map(|(layout, round)| {
            raw_stats(layout).prop_map(move |raw| (layout, round, build_stats(round, layout, raw)))
        }),
    ) {
        let ((rows, k, m), round, stats) = case;
        let words = mask::stats_to_words(&stats);
        prop_assert_eq!(words.len(), MaskedStats::word_count(rows, k, m));
        let back = mask::words_to_stats(round, (rows, k, m), &words).unwrap();
        prop_assert_eq!(mask::stats_to_words(&back), words);
        assert_stats_bitwise_eq(&back, &stats)?;
    }

    #[test]
    fn pair_streams_are_symmetric_and_round_scoped(
        seed in 0u64..u64::MAX,
        a in 0u32..64,
        offset in 1u32..64,
        round in 0u32..64,
    ) {
        let b = (a + offset) % 64; // offset in 1..64 ⇒ b ≠ a
        // Both ends of a pair must derive the same stream key...
        prop_assert_eq!(mask::pair_key(seed, a, b, round), mask::pair_key(seed, b, a, round));
        // ...and neighbouring rounds / pairs must not share it, so a
        // replayed masked frame from another round can never unmask.
        prop_assert_ne!(mask::pair_key(seed, a, b, round), mask::pair_key(seed, a, b, round + 1));
        let c = (b + 1) % 64;
        if c != a && c != b {
            prop_assert_ne!(mask::pair_key(seed, a, b, round), mask::pair_key(seed, a, c, round));
        }
    }

    #[test]
    fn survivor_sums_match_plaintext_merge_bitwise(
        case in (members(), 0u64..u64::MAX, shape(), 0u32..u32::MAX).prop_flat_map(
            |(members, seed, layout, survivor_bits)| {
                let n = members.len();
                proptest::collection::vec(raw_stats(layout), n).prop_map(move |raws| {
                    (members.clone(), seed, layout, survivor_bits, raws)
                })
            },
        ),
    ) {
        // The server-side green path under drops: unmask each reporter,
        // then float-merge in ascending order. Because unmasking is
        // exact (not just sum-preserving), any survivor subset merges to
        // the same bits the plaintext run produces.
        let (members, seed, layout, survivor_bits, raws) = case;
        let (rows, k, m) = layout;
        let spec = MaskSpec { seed, members: members.clone() };
        let zeros = || SuffStats { sums: Matrix::zeros(rows, m), counts: vec![0; k] };
        let mut plain = zeros();
        let mut recovered = zeros();
        for (i, (&id, raw)) in members.iter().zip(raws).enumerate() {
            // Member 0 always survives so the merge is never empty; the
            // rest drop according to the seeded bit pattern.
            if i > 0 && survivor_bits & (1 << (i % 32)) == 0 {
                continue;
            }
            let stats = build_stats(3, layout, raw);
            plain.merge(&stats.stats).unwrap();
            let masked = mask::mask_stats(&stats, &spec, id);
            let back = mask::unmask_stats(&masked, &spec, id).unwrap();
            recovered.merge(&back.stats).unwrap();
        }
        prop_assert_eq!(&recovered.counts, &plain.counts);
        for (a, b) in recovered.sums.as_slice().iter().zip(plain.sums.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wrong_word_count_is_rejected(
        (rows, k, m) in shape(),
        delta in prop_oneof![Just(-1isize), Just(1), Just(7)],
    ) {
        let want = MaskedStats::word_count(rows, k, m);
        let len = (want as isize + delta).max(0) as usize;
        prop_assert!(mask::words_to_stats(0, (rows, k, m), &vec![0u64; len]).is_err());
    }

    #[test]
    fn disagreeing_or_overflowing_headers_are_typed_errors(
        (rows, k, m) in shape(),
        huge in prop_oneof![Just(u32::MAX), Just(1u32 << 31), Just(1u32 << 16)],
        field in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        // A masked header whose rows, counts or width disagree with its
        // words — or multiply past usize — unmasks to a transport error,
        // never a panic or an allocation of the header's size.
        let spec = MaskSpec { seed, members: vec![0, 1] };
        let stats = build_stats(0, (rows, k, m), (vec![0; rows * m], vec![1; k], 0));
        let mut masked = mask::mask_stats(&stats, &spec, 0);
        prop_assert_eq!((masked.rows, masked.k, masked.m), (rows as u32, k as u32, m as u32));
        match field {
            0 => masked.rows = huge,
            1 => masked.k = huge,
            _ => masked.m = huge,
        }
        prop_assert!(matches!(
            mask::unmask_stats(&masked, &spec, 0),
            Err(kr_core::CoreError::Transport(_))
        ));
    }
}

//! Property-based coverage of the wire layer: arbitrary messages
//! round-trip bit-exactly; truncated or corrupt frames return errors
//! instead of panicking; and measured frame bytes equal the Figure 10
//! closed-form accounting.

use kr_core::aggregator::Aggregator;
use kr_core::stats::SuffStats;
use kr_federated::protocol::{
    Broadcast, Join, LocalStats, MaskSpec, MaskedStats, Msg, RoundAck, Summary,
};
use kr_federated::wire::{self, WireError, LEN_PREFIX};
use kr_linalg::Matrix;
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1e6..1e6f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

fn row() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6..1e6f64, 0..6)
}

fn summary() -> impl Strategy<Value = Summary> {
    let centroids = small_matrix().prop_map(Summary::Centroids);
    let protosets = (1usize..=3, 1usize..=4, 0u8..=1).prop_flat_map(|(p, m, agg)| {
        proptest::collection::vec(
            (1usize..=4).prop_flat_map(move |h| {
                proptest::collection::vec(-100.0..100.0f64, h * m)
                    .prop_map(move |data| Matrix::from_vec(h, m, data).unwrap())
            }),
            p,
        )
        .prop_map(move |sets| Summary::ProtoSets {
            aggregator: if agg == 0 {
                Aggregator::Sum
            } else {
                Aggregator::Product
            },
            sets,
        })
    });
    prop_oneof![centroids, protosets]
}

fn mask() -> impl Strategy<Value = Option<MaskSpec>> {
    prop_oneof![
        Just(None),
        (0u64..1000, proptest::collection::vec(0u32..64, 0..6))
            .prop_map(|(seed, members)| Some(MaskSpec { seed, members })),
    ]
}

fn msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (0u32..100, 0u64..1000, 0u64..64, proptest::bool::ANY).prop_map(
            |(client_id, nrows, ncols, finite)| Msg::Join(Join {
                client_id,
                nrows,
                ncols,
                finite,
            })
        ),
        (0u64..1000).prop_map(|index| Msg::FetchPoint { index }),
        row().prop_map(|row| Msg::Point { row }),
        row().prop_map(|row| Msg::SeedInit { row }),
        row().prop_map(|row| Msg::SeedUpdate { row }),
        (-1e9..1e9f64).prop_map(|mass| Msg::SeedMass { mass }),
        (-1e9..1e9f64).prop_map(|target| Msg::SeedSelect { target }),
        (row(), proptest::bool::ANY).prop_map(|(row, found)| Msg::SeedPick { row, found }),
        Just(Msg::MeanQuery),
        (row(), 0u64..1000).prop_map(|(sum, count)| Msg::MeanStats { sum, count }),
        (0u32..64, proptest::bool::ANY, mask(), summary()).prop_map(
            |(round, eval_only, mask, summary)| {
                Msg::Broadcast(Broadcast {
                    round,
                    eval_only,
                    mask,
                    summary,
                })
            }
        ),
        // Uploads whose sum-row count differs from k (Sum KR-FkM
        // marginals) as well as cell-form ones.
        (0u32..64, small_matrix(), 0usize..=6, -1e9..1e9f64).prop_map(
            |(round, sums, k, inertia)| {
                let counts = (0..k).map(|i| i as u64 * 7).collect();
                Msg::LocalStats(LocalStats {
                    round,
                    inertia,
                    stats: SuffStats { sums, counts },
                })
            }
        ),
        (0u32..64, proptest::bool::ANY).prop_map(|(round, done)| {
            Msg::RoundAck(RoundAck {
                round,
                done,
                next: None,
            })
        }),
        // Pipelined ack: a non-final ack carrying the next broadcast.
        (0u32..64, proptest::bool::ANY, mask(), summary()).prop_map(
            |(round, eval_only, mask, summary)| {
                Msg::RoundAck(RoundAck {
                    round,
                    done: false,
                    next: Some(Broadcast {
                        round: round + 1,
                        eval_only,
                        mask,
                        summary,
                    }),
                })
            }
        ),
        // Masked upload: (rows·m + k + 1) wrapped words.
        (0u32..64, 0u32..=4, 0u32..=4, 0u32..=4).prop_flat_map(|(round, rows, k, m)| {
            let words = MaskedStats::word_count(rows as usize, k as usize, m as usize);
            proptest::collection::vec(0u64..u64::MAX, words).prop_map(move |words| {
                Msg::MaskedStats(MaskedStats {
                    round,
                    rows,
                    k,
                    m,
                    words,
                })
            })
        }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_round_trips(m in msg()) {
        let (frame, info) = wire::encode(&m);
        prop_assert_eq!(info.frame_bytes, frame.len());
        // The encoder's measured stat bytes agree with the decoder-side
        // recomputation.
        prop_assert_eq!(info.stat_bytes, wire::stat_bytes(&m));
        let back = wire::decode_frame(&frame).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(m in msg(), cut_frac in 0.0..1.0f64) {
        let (frame, _) = wire::encode(&m);
        let cut = ((frame.len() as f64) * cut_frac) as usize; // < len
        prop_assert!(wire::decode_frame(&frame[..cut]).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics(m in msg(), pos_frac in 0.0..1.0f64, flip in 1u8..=255) {
        let (mut frame, _) = wire::encode(&m);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        // Corruption may still decode to a *different* valid message
        // (flipped f64 payload bits, say) — the property is that decode
        // never panics and never returns the wrong length silently.
        match wire::decode_frame(&frame) {
            Ok(_) | Err(_) => {}
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(m in msg(), extra in 1usize..16) {
        let (mut frame, _) = wire::encode(&m);
        frame.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(wire::decode_frame(&frame), Err(WireError::TrailingBytes));
    }

    #[test]
    fn broadcast_stat_bytes_equal_closed_form(k in 1usize..=6, m in 1usize..=6) {
        // FkM downlink accounting: k·m f64s.
        let msg = Msg::Broadcast(Broadcast {
            round: 0,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(Matrix::zeros(k, m)),
        });
        let (_, info) = wire::encode(&msg);
        prop_assert_eq!(info.stat_bytes, k * m * kr_federated::BYTES_PER_F64);
        // KR-FkM downlink accounting: (h1+h2)·m f64s.
        let msg = Msg::Broadcast(Broadcast {
            round: 0,
            eval_only: false,
            mask: None,
            summary: Summary::ProtoSets {
                aggregator: Aggregator::Sum,
                sets: vec![Matrix::zeros(k, m), Matrix::zeros(k + 1, m)],
            },
        });
        let (_, info) = wire::encode(&msg);
        prop_assert_eq!(info.stat_bytes, (k + k + 1) * m * kr_federated::BYTES_PER_F64);
        // Uplink accounting: k·m sums + k counts, 8 bytes each.
        let msg = Msg::LocalStats(LocalStats {
            round: 0,
            inertia: 0.0,
            stats: SuffStats::zeros(k, m),
        });
        let (_, info) = wire::encode(&msg);
        prop_assert_eq!(info.stat_bytes, (k * m + k) * kr_federated::BYTES_PER_F64);
        // Sum KR-FkM uplink over the k x (k+1) grid: (h1+h2)·m marginal
        // sums + h1·h2 counts.
        let msg = Msg::LocalStats(LocalStats {
            round: 0,
            inertia: 0.0,
            stats: SuffStats {
                sums: Matrix::zeros(k + k + 1, m),
                counts: vec![0; k * (k + 1)],
            },
        });
        let (_, info) = wire::encode(&msg);
        prop_assert_eq!(
            info.stat_bytes,
            ((k + k + 1) * m + k * (k + 1)) * kr_federated::BYTES_PER_F64
        );
        prop_assert_eq!(info.stat_bytes, wire::stat_bytes(&msg));
        // A pipelined ack accounts exactly like the standalone
        // broadcast it carries (round-trip halving changes frames, not
        // the Figure 10 accounting).
        let broadcast = Broadcast {
            round: 1,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(Matrix::zeros(k, m)),
        };
        let (_, standalone) = wire::encode(&Msg::Broadcast(broadcast.clone()));
        let (_, pipelined) = wire::encode(&Msg::RoundAck(RoundAck {
            round: 0,
            done: false,
            next: Some(broadcast),
        }));
        prop_assert_eq!(pipelined.stat_bytes, standalone.stat_bytes);
    }

    #[test]
    fn masked_accounting_matches_plaintext(
        k in 1usize..=6,
        m in 1usize..=6,
        marginal in proptest::bool::ANY,
        members in proptest::collection::vec(0u32..64, 1..6),
    ) {
        // A masked upload accounts exactly like the plaintext one —
        // rows·m sums + k counts, 8 bytes each, in cell form (rows = k)
        // and in marginal form; the wrapped inertia word and the word
        // framing are overhead, like plaintext framing.
        let rows = if marginal { k + 1 } else { k };
        let stats = Msg::LocalStats(LocalStats {
            round: 0,
            inertia: 0.0,
            stats: SuffStats { sums: Matrix::zeros(rows, m), counts: vec![0; k] },
        });
        let masked = Msg::MaskedStats(MaskedStats {
            round: 0,
            rows: rows as u32,
            k: k as u32,
            m: m as u32,
            words: vec![0; MaskedStats::word_count(rows, k, m)],
        });
        let (_, plain_info) = wire::encode(&stats);
        let (_, masked_info) = wire::encode(&masked);
        prop_assert_eq!(masked_info.stat_bytes, plain_info.stat_bytes);
        prop_assert_eq!(masked_info.stat_bytes, (rows * m + k) * kr_federated::BYTES_PER_F64);
        prop_assert_eq!(masked_info.stat_bytes, wire::stat_bytes(&masked));
        // Mask parameters ride in the broadcast as framing overhead:
        // the stat bytes of a masked broadcast equal the unmasked ones.
        let bare = Broadcast {
            round: 0,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(Matrix::zeros(k, m)),
        };
        let spec = MaskSpec { seed: 7, members };
        let masked_bc = Broadcast {
            mask: Some(spec),
            ..bare.clone()
        };
        let (_, bare_info) = wire::encode(&Msg::Broadcast(bare));
        let (masked_frame, masked_bc_info) = wire::encode(&Msg::Broadcast(masked_bc));
        prop_assert_eq!(masked_bc_info.stat_bytes, bare_info.stat_bytes);
        prop_assert!(masked_frame.len() > bare_info.frame_bytes, "spec bytes are overhead");
    }
}

/// A frame of `tag` followed by `fields`, with a correct length prefix.
fn frame_of(tag: u8, fields: &[u32]) -> Vec<u8> {
    let mut payload = vec![tag];
    for f in fields {
        payload.extend_from_slice(&f.to_le_bytes());
    }
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(payload);
    frame
}

proptest! {
    #[test]
    fn upload_headers_that_overflow_or_disagree_are_typed_errors(
        rows in prop_oneof![Just(u32::MAX), Just(1u32 << 31), 0u32..8],
        cols in prop_oneof![Just(u32::MAX), Just(1u32 << 31), 0u32..8],
        k in prop_oneof![Just(u32::MAX), Just(1u32 << 31), 0u32..8],
        words in 0usize..16,
    ) {
        // Upload headers straight off the wire — plaintext and masked,
        // in cell form (rows == k) and in marginal form (rows and k both
        // in the header) — followed by too few words. Whatever the header
        // claims, decoding returns a typed error — a shape that
        // multiplies past the frame limit, or a truncated payload — and
        // never panics or allocates the header's size.
        const LOCAL_STATS: u8 = 11;
        const MASKED_STATS: u8 = 13;
        const MARGINAL_STATS: u8 = 14;
        const MASKED_MARGINAL_STATS: u8 = 15;
        let (r, c, n) = (rows as usize, cols as usize, k as usize);
        let cases = [
            (frame_of(LOCAL_STATS, &[0, 0, 0, rows, cols]), r * c + r),
            (frame_of(MARGINAL_STATS, &[0, 0, 0, rows, cols, k]), r * c + n),
            (frame_of(MASKED_STATS, &[0, k, cols]), MaskedStats::word_count(n, n, c)),
            (
                frame_of(MASKED_MARGINAL_STATS, &[0, rows, k, cols]),
                MaskedStats::word_count(r, n, c),
            ),
        ];
        for (mut frame, need) in cases {
            frame.extend(std::iter::repeat_n(0u8, 8 * words));
            let len = (frame.len() - LEN_PREFIX) as u32;
            frame[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
            let got = wire::decode_frame(&frame);
            if need > words {
                prop_assert!(
                    matches!(got, Err(WireError::BadValue(_)) | Err(WireError::Truncated)),
                    "{:?}",
                    got
                );
            }
        }
    }
}

#[test]
fn length_prefix_is_little_endian_u32() {
    let (frame, _) = wire::encode(&Msg::MeanQuery);
    let len = u32::from_le_bytes(frame[..LEN_PREFIX].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - LEN_PREFIX);
}

//! Length-prefixed little-endian framing for the federated protocol.
//!
//! Every [`Msg`] travels as one frame:
//!
//! ```text
//! [u32 LE payload length][u8 tag][tag-specific fields, all LE]
//! ```
//!
//! Scalars are `u32`/`u64`/`f64` little-endian; vectors are a `u32`
//! length followed by their elements; matrices are `u32 rows`,
//! `u32 cols`, then the row-major `f64` block. `f64` bits round-trip
//! exactly (`to_le_bytes`/`from_le_bytes`), which is what makes a
//! loopback-TCP federated run bitwise identical to the in-process one.
//!
//! **Byte accounting.** [`encode`] measures, from the actual bytes it
//! writes, how many belong to *summary statistics* — the centroid /
//! protocentroid `f64` blocks of a broadcast, and the sums + counts
//! blocks of an upload ([`FrameInfo::stat_bytes`]). Those measured
//! counts are what [`crate::RoundStats`] accumulates, and they equal the
//! paper's closed-form Figure 10 accounting by construction — a property
//! the wire tests assert. Down, a broadcast carries `k·m` words for FkM
//! and `(Σ h_l)·m` for KR-FkM. Up, a reply carries `rows·m` sums and `k`
//! counts: `k·m + k` words for FkM and Product KR-FkM, `(Σ h_l)·m + k`
//! for Sum KR-FkM, whose clients send each protocentroid's marginal sum.
//! Every word is 8 bytes. An upload whose sum-row count differs from `k`
//! travels under its own tag, whose header carries `k` as well; a
//! cell-form upload keeps the frame it always had. Everything else
//! (tags, shapes, round indices,
//! control messages, the per-round inertia telemetry float) is framing
//! overhead, reported separately via [`FrameInfo::frame_bytes`].
//!
//! ```
//! use kr_federated::protocol::Msg;
//! use kr_federated::wire;
//!
//! let msg = Msg::SeedMass { mass: 2.5 };
//! let (frame, info) = wire::encode(&msg);
//! assert_eq!(info.frame_bytes, frame.len());
//! assert_eq!(info.stat_bytes, 0); // control message: no summary stats
//! assert_eq!(wire::decode_frame(&frame).unwrap(), msg);
//! ```

use crate::protocol::{Broadcast, Join, LocalStats, MaskSpec, MaskedStats, Msg, RoundAck, Summary};
use kr_core::aggregator::Aggregator;
use kr_core::stats::SuffStats;
use kr_core::CoreError;
use kr_linalg::Matrix;
use std::io::{Read, Write};

/// Upper bound on a frame payload (guards corrupt length prefixes).
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Size of the `u32` length prefix.
pub const LEN_PREFIX: usize = 4;

/// Payload bytes [`read_frame`] reserves before any arrive; a larger
/// frame's buffer grows with the bytes received.
const READ_RESERVE: usize = 64 * 1024;

/// Framing / decoding errors. All decode paths return errors instead of
/// panicking, so a corrupt or truncated peer cannot crash the server.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame ended before the advertised payload did.
    Truncated,
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes,
    /// Unknown message tag.
    BadTag(u8),
    /// A field held an invalid value (bad enum discriminant, absurd
    /// shape, …).
    BadValue(&'static str),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The peer closed the stream at a frame boundary (clean shutdown).
    Closed,
    /// The read deadline elapsed before a full frame arrived. Distinct
    /// from [`WireError::Truncated`] / [`WireError::Io`] so the server
    /// can classify a slow peer differently from a corrupt one.
    Timeout,
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
            WireError::FrameTooLarge(n) => write!(f, "frame length {n} exceeds limit"),
            WireError::Closed => write!(f, "peer closed the stream"),
            WireError::Timeout => write!(f, "read deadline elapsed"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for CoreError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Timeout => CoreError::Timeout(e.to_string()),
            other => CoreError::Transport(other.to_string()),
        }
    }
}

/// Measured sizes of one encoded frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameInfo {
    /// Total bytes on the wire, length prefix included.
    pub frame_bytes: usize,
    /// Bytes of summary statistics inside the payload (see module docs).
    pub stat_bytes: usize,
}

// ---- encoding -----------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
    stat_bytes: usize,
}

impl Enc {
    fn new(tag: u8) -> Self {
        // Reserve the length prefix; it is patched in `finish`.
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(tag);
        Enc { buf, stat_bytes: 0 }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Runs `f` and counts every byte it writes as summary statistics.
    fn stat_section(&mut self, f: impl FnOnce(&mut Self)) {
        let before = self.buf.len();
        f(self);
        self.stat_bytes += self.buf.len() - before;
    }

    fn finish(mut self) -> (Vec<u8>, FrameInfo) {
        let payload_len = (self.buf.len() - LEN_PREFIX) as u32;
        self.buf[..LEN_PREFIX].copy_from_slice(&payload_len.to_le_bytes());
        let info = FrameInfo {
            frame_bytes: self.buf.len(),
            stat_bytes: self.stat_bytes,
        };
        (self.buf, info)
    }
}

const TAG_JOIN: u8 = 0;
const TAG_FETCH_POINT: u8 = 1;
const TAG_POINT: u8 = 2;
const TAG_SEED_INIT: u8 = 3;
const TAG_SEED_UPDATE: u8 = 4;
const TAG_SEED_MASS: u8 = 5;
const TAG_SEED_SELECT: u8 = 6;
const TAG_SEED_PICK: u8 = 7;
const TAG_MEAN_QUERY: u8 = 8;
const TAG_MEAN_STATS: u8 = 9;
const TAG_BROADCAST: u8 = 10;
const TAG_LOCAL_STATS: u8 = 11;
const TAG_ROUND_ACK: u8 = 12;
const TAG_MASKED_STATS: u8 = 13;
/// A [`LocalStats`] or [`MaskedStats`] upload whose sum rows are not one
/// per cluster (Sum KR-FkM marginals): its header adds the count of
/// counts.
const TAG_MARGINAL_STATS: u8 = 14;
const TAG_MASKED_MARGINAL_STATS: u8 = 15;

/// Encodes a message into one frame (length prefix included), measuring
/// its sizes from the bytes actually written.
pub fn encode(msg: &Msg) -> (Vec<u8>, FrameInfo) {
    match msg {
        Msg::Join(j) => {
            let mut e = Enc::new(TAG_JOIN);
            e.u32(j.client_id);
            e.u64(j.nrows);
            e.u64(j.ncols);
            e.u8(j.finite as u8);
            e.finish()
        }
        Msg::FetchPoint { index } => {
            let mut e = Enc::new(TAG_FETCH_POINT);
            e.u64(*index);
            e.finish()
        }
        Msg::Point { row } => {
            let mut e = Enc::new(TAG_POINT);
            e.f64s(row);
            e.finish()
        }
        Msg::SeedInit { row } => {
            let mut e = Enc::new(TAG_SEED_INIT);
            e.f64s(row);
            e.finish()
        }
        Msg::SeedUpdate { row } => {
            let mut e = Enc::new(TAG_SEED_UPDATE);
            e.f64s(row);
            e.finish()
        }
        Msg::SeedMass { mass } => {
            let mut e = Enc::new(TAG_SEED_MASS);
            e.f64(*mass);
            e.finish()
        }
        Msg::SeedSelect { target } => {
            let mut e = Enc::new(TAG_SEED_SELECT);
            e.f64(*target);
            e.finish()
        }
        Msg::SeedPick { row, found } => {
            let mut e = Enc::new(TAG_SEED_PICK);
            e.f64s(row);
            e.u8(*found as u8);
            e.finish()
        }
        Msg::MeanQuery => Enc::new(TAG_MEAN_QUERY).finish(),
        Msg::MeanStats { sum, count } => {
            let mut e = Enc::new(TAG_MEAN_STATS);
            e.f64s(sum);
            e.u64(*count);
            e.finish()
        }
        Msg::Broadcast(b) => {
            let mut e = Enc::new(TAG_BROADCAST);
            enc_broadcast(&mut e, b);
            e.finish()
        }
        Msg::LocalStats(s) => {
            let (rows, k) = (s.stats.sums.nrows(), s.stats.counts.len());
            let mut e = Enc::new(if rows == k {
                TAG_LOCAL_STATS
            } else {
                TAG_MARGINAL_STATS
            });
            e.u32(s.round);
            e.f64(s.inertia); // telemetry, not accounted
            e.u32(rows as u32);
            e.u32(s.stats.sums.ncols() as u32);
            if rows != k {
                e.u32(k as u32);
            }
            e.stat_section(|e| {
                for &v in s.stats.sums.as_slice() {
                    e.f64(v);
                }
                // Counts ride as 8-byte words, exactly the closed form's
                // `k` extra f64s.
                for &c in &s.stats.counts {
                    e.u64(c);
                }
            });
            e.finish()
        }
        Msg::MaskedStats(s) => {
            let mut e = Enc::new(if s.rows == s.k {
                TAG_MASKED_STATS
            } else {
                TAG_MASKED_MARGINAL_STATS
            });
            e.u32(s.round);
            if s.rows != s.k {
                e.u32(s.rows);
            }
            e.u32(s.k);
            e.u32(s.m);
            let stat_words = s.stat_words();
            // Masked sums + counts account exactly like a plaintext
            // upload; the trailing masked-inertia word is telemetry.
            e.stat_section(|e| {
                for &w in s.words.iter().take(stat_words) {
                    e.u64(w);
                }
            });
            for &w in s.words.iter().skip(stat_words) {
                e.u64(w);
            }
            e.finish()
        }
        Msg::RoundAck(a) => {
            let mut e = Enc::new(TAG_ROUND_ACK);
            e.u32(a.round);
            e.u8(a.done as u8);
            match &a.next {
                None => e.u8(0),
                Some(b) => {
                    // Pipelined next-round broadcast: identical body
                    // encoding to a standalone Broadcast frame, so the
                    // measured summary-statistic bytes are identical
                    // too (Figure 10's closed forms hold either way).
                    e.u8(1);
                    enc_broadcast(&mut e, b);
                }
            }
            e.finish()
        }
    }
}

/// Encodes a [`Broadcast`] body (round, eval flag, summary), counting
/// the summary's `f64` blocks as statistic bytes. Shared by standalone
/// `Broadcast` frames and `RoundAck`-pipelined ones.
fn enc_broadcast(e: &mut Enc, b: &Broadcast) {
    e.u32(b.round);
    e.u8(b.eval_only as u8);
    match &b.mask {
        None => e.u8(0),
        Some(spec) => {
            // Mask parameters are control plumbing, not summary
            // statistics: framing overhead like the round index.
            e.u8(1);
            e.u64(spec.seed);
            e.u32(spec.members.len() as u32);
            for &id in &spec.members {
                e.u32(id);
            }
        }
    }
    match &b.summary {
        Summary::Centroids(c) => {
            e.u8(0);
            e.u32(c.nrows() as u32);
            e.u32(c.ncols() as u32);
            e.stat_section(|e| {
                for &v in c.as_slice() {
                    e.f64(v);
                }
            });
        }
        Summary::ProtoSets { aggregator, sets } => {
            e.u8(1);
            e.u8(match aggregator {
                Aggregator::Sum => 0,
                Aggregator::Product => 1,
            });
            e.u8(sets.len() as u8);
            for s in sets {
                e.u32(s.nrows() as u32);
                e.u32(s.ncols() as u32);
                e.stat_section(|e| {
                    for &v in s.as_slice() {
                        e.f64(v);
                    }
                });
            }
        }
    }
}

/// Summary-statistic bytes a frame of `msg` carries — the recv-side
/// counterpart of [`FrameInfo::stat_bytes`] (the encoder measures while
/// writing; the decoder recomputes from the decoded message; the wire
/// tests assert both agree).
pub fn stat_bytes(msg: &Msg) -> usize {
    match msg {
        Msg::Broadcast(b) => 8 * b.summary.param_f64s(),
        Msg::LocalStats(s) => 8 * s.stats.wire_f64s(),
        Msg::MaskedStats(s) => 8usize.saturating_mul(s.stat_words()),
        Msg::RoundAck(a) => a.next.as_ref().map_or(0, |b| 8 * b.summary.param_f64s()),
        _ => 0,
    }
}

// ---- decoding -----------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_LEN / 8 {
            return Err(WireError::BadValue("vector length"));
        }
        let mut out = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn matrix(&mut self) -> Result<Matrix, WireError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        self.matrix_body(rows, cols)
    }

    /// The row-major `f64` block of a `rows x cols` matrix whose shape
    /// was read already.
    fn matrix_body(&mut self, rows: usize, cols: usize) -> Result<Matrix, WireError> {
        let len = rows
            .checked_mul(cols)
            .filter(|&l| l <= MAX_FRAME_LEN / 8)
            .ok_or(WireError::BadValue("matrix shape"))?;
        let mut data = Vec::with_capacity(len.min(self.buf.len() / 8 + 1));
        for _ in 0..len {
            data.push(self.f64()?);
        }
        if rows == 0 || cols == 0 {
            // `Matrix::from_vec` rejects empty shapes; model them as the
            // canonical empty matrix.
            return Ok(Matrix::zeros(rows, cols));
        }
        Matrix::from_vec(rows, cols, data).map_err(|_| WireError::BadValue("matrix shape"))
    }
}

/// Decodes one full frame (length prefix included), rejecting length
/// mismatches and trailing bytes.
pub fn decode_frame(frame: &[u8]) -> Result<Msg, WireError> {
    if frame.len() < LEN_PREFIX + 1 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(frame[..LEN_PREFIX].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    if frame.len() - LEN_PREFIX != len {
        return Err(if frame.len() - LEN_PREFIX < len {
            WireError::Truncated
        } else {
            WireError::TrailingBytes
        });
    }
    decode_payload(&frame[LEN_PREFIX..])
}

/// Decodes a frame payload (everything after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Msg, WireError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let tag = d.u8()?;
    let msg = match tag {
        TAG_JOIN => Msg::Join(Join {
            client_id: d.u32()?,
            nrows: d.u64()?,
            ncols: d.u64()?,
            finite: d.bool()?,
        }),
        TAG_FETCH_POINT => Msg::FetchPoint { index: d.u64()? },
        TAG_POINT => Msg::Point { row: d.f64s()? },
        TAG_SEED_INIT => Msg::SeedInit { row: d.f64s()? },
        TAG_SEED_UPDATE => Msg::SeedUpdate { row: d.f64s()? },
        TAG_SEED_MASS => Msg::SeedMass { mass: d.f64()? },
        TAG_SEED_SELECT => Msg::SeedSelect { target: d.f64()? },
        TAG_SEED_PICK => Msg::SeedPick {
            row: d.f64s()?,
            found: d.bool()?,
        },
        TAG_MEAN_QUERY => Msg::MeanQuery,
        TAG_MEAN_STATS => Msg::MeanStats {
            sum: d.f64s()?,
            count: d.u64()?,
        },
        TAG_BROADCAST => Msg::Broadcast(dec_broadcast(&mut d)?),
        TAG_LOCAL_STATS | TAG_MARGINAL_STATS => {
            let round = d.u32()?;
            let inertia = d.f64()?;
            let rows = d.u32()? as usize;
            let cols = d.u32()? as usize;
            let k = if tag == TAG_MARGINAL_STATS {
                d.u32()? as usize
            } else {
                rows
            };
            let sums = d.matrix_body(rows, cols)?;
            let mut counts = Vec::with_capacity(k.min(d.buf.len() / 8 + 1));
            for _ in 0..k {
                counts.push(d.u64()?);
            }
            Msg::LocalStats(LocalStats {
                round,
                inertia,
                stats: SuffStats { sums, counts },
            })
        }
        TAG_MASKED_STATS | TAG_MASKED_MARGINAL_STATS => {
            let round = d.u32()?;
            let rows = if tag == TAG_MASKED_MARGINAL_STATS {
                Some(d.u32()?)
            } else {
                None
            };
            let k = d.u32()?;
            let m = d.u32()?;
            let rows = rows.unwrap_or(k);
            let n_words = MaskedStats::word_count(rows as usize, k as usize, m as usize);
            if n_words > MAX_FRAME_LEN / 8 {
                return Err(WireError::BadValue("masked stats shape"));
            }
            let mut words = Vec::with_capacity(n_words.min(d.buf.len() / 8 + 1));
            for _ in 0..n_words {
                words.push(d.u64()?);
            }
            Msg::MaskedStats(MaskedStats {
                round,
                rows,
                k,
                m,
                words,
            })
        }
        TAG_ROUND_ACK => {
            let round = d.u32()?;
            let done = d.bool()?;
            let next = if d.bool()? {
                Some(dec_broadcast(&mut d)?)
            } else {
                None
            };
            Msg::RoundAck(RoundAck { round, done, next })
        }
        other => return Err(WireError::BadTag(other)),
    };
    if d.pos != payload.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(msg)
}

/// Decodes a [`Broadcast`] body — the counterpart of `enc_broadcast`.
fn dec_broadcast(d: &mut Dec<'_>) -> Result<Broadcast, WireError> {
    let round = d.u32()?;
    let eval_only = d.bool()?;
    let mask = if d.bool()? {
        let seed = d.u64()?;
        let n = d.u32()? as usize;
        if n > MAX_FRAME_LEN / 4 {
            return Err(WireError::BadValue("mask member count"));
        }
        let mut members = Vec::with_capacity(n.min(d.buf.len() / 4 + 1));
        for _ in 0..n {
            members.push(d.u32()?);
        }
        Some(MaskSpec { seed, members })
    } else {
        None
    };
    let summary = match d.u8()? {
        0 => Summary::Centroids(d.matrix()?),
        1 => {
            let aggregator = match d.u8()? {
                0 => Aggregator::Sum,
                1 => Aggregator::Product,
                _ => return Err(WireError::BadValue("aggregator")),
            };
            let n_sets = d.u8()? as usize;
            let mut sets = Vec::with_capacity(n_sets);
            for _ in 0..n_sets {
                sets.push(d.matrix()?);
            }
            Summary::ProtoSets { aggregator, sets }
        }
        _ => return Err(WireError::BadValue("summary kind")),
    };
    Ok(Broadcast {
        round,
        eval_only,
        mask,
        summary,
    })
}

// ---- stream I/O ---------------------------------------------------------

/// Writes one encoded frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame).map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one full frame (length prefix included) from a stream. A clean
/// EOF at a frame boundary returns [`WireError::Closed`]; an EOF inside
/// the frame returns [`WireError::Truncated`]. The payload buffer grows
/// only with the bytes received, so a length prefix alone cannot make
/// the reader allocate up to [`MAX_FRAME_LEN`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut prefix = [0u8; LEN_PREFIX];
    let mut filled = 0usize;
    while filled < LEN_PREFIX {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(WireError::Timeout),
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut frame = Vec::with_capacity(LEN_PREFIX + len.min(READ_RESERVE));
    frame.extend_from_slice(&prefix);
    r.take(len as u64).read_to_end(&mut frame).map_err(|e| {
        if is_timeout(&e) {
            WireError::Timeout
        } else {
            WireError::Io(e.to_string())
        }
    })?;
    if frame.len() != LEN_PREFIX + len {
        return Err(WireError::Truncated);
    }
    Ok(frame)
}

/// Whether an I/O error is a read-deadline expiry. `read_timeout` on a
/// `TcpStream` surfaces as `WouldBlock` on Unix and `TimedOut` on
/// Windows, so both kinds classify as a timeout.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_stat_bytes_match_closed_form() {
        let c = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let msg = Msg::Broadcast(Broadcast {
            round: 2,
            eval_only: false,
            mask: None,
            summary: Summary::Centroids(c),
        });
        let (frame, info) = encode(&msg);
        assert_eq!(info.stat_bytes, 5 * 3 * 8);
        assert_eq!(info.stat_bytes, stat_bytes(&msg));
        assert_eq!(info.frame_bytes, frame.len());
        assert!(
            info.frame_bytes > info.stat_bytes,
            "framing overhead exists"
        );
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn local_stats_round_trip_preserves_bits() {
        let mut stats = SuffStats::zeros(2, 2);
        stats.sums.set(0, 0, -0.0);
        stats.sums.set(0, 1, f64::MIN_POSITIVE / 2.0); // subnormal
        stats.sums.set(1, 0, 1.0 + f64::EPSILON);
        stats.counts[1] = u64::MAX;
        let msg = Msg::LocalStats(LocalStats {
            round: 7,
            inertia: 3.5,
            stats,
        });
        let (frame, info) = encode(&msg);
        assert_eq!(info.stat_bytes, (2 * 2 + 2) * 8);
        // Prefix, tag, round, inertia, rows and width: a cell-form upload
        // carries no separate count of counts.
        assert_eq!(info.frame_bytes, 4 + 1 + 4 + 8 + 4 + 4 + info.stat_bytes);
        let back = decode_frame(&frame).unwrap();
        match (&msg, &back) {
            (Msg::LocalStats(a), Msg::LocalStats(b)) => {
                for (x, y) in a.stats.sums.as_slice().iter().zip(b.stats.sums.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                assert_eq!(a.stats.counts, b.stats.counts);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn marginal_local_stats_round_trip() {
        // A Sum KR-FkM reply: (Σh)·m marginal sums and k counts, with
        // the sum-row count and k carried separately.
        let (rows, k, m) = (5usize, 6usize, 2usize);
        let stats = SuffStats {
            sums: Matrix::from_fn(rows, m, |i, j| i as f64 - 0.5 * j as f64),
            counts: (0..k as u64).collect(),
        };
        let msg = Msg::LocalStats(LocalStats {
            round: 2,
            inertia: 1.5,
            stats,
        });
        let (frame, info) = encode(&msg);
        assert_eq!(info.stat_bytes, (rows * m + k) * 8);
        assert_eq!(info.stat_bytes, stat_bytes(&msg));
        assert_eq!(
            info.frame_bytes,
            4 + 1 + 4 + 8 + 4 + 4 + 4 + info.stat_bytes
        );
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn masked_stats_and_mask_spec_round_trip() {
        let (rows, k, m) = (2usize, 3usize, 2usize);
        let words: Vec<u64> = (0..MaskedStats::word_count(rows, k, m) as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let msg = Msg::MaskedStats(MaskedStats {
            round: 4,
            rows: rows as u32,
            k: k as u32,
            m: m as u32,
            words,
        });
        let (frame, info) = encode(&msg);
        // Masked uploads account exactly like plaintext ones: rows·m + k
        // words of summary statistics; the inertia word is telemetry.
        assert_eq!(info.stat_bytes, (rows * m + k) * 8);
        assert_eq!(info.stat_bytes, stat_bytes(&msg));
        assert_eq!(decode_frame(&frame).unwrap(), msg);

        let msg = Msg::Broadcast(Broadcast {
            round: 1,
            eval_only: false,
            mask: Some(MaskSpec {
                seed: 0xDEAD_BEEF,
                members: vec![0, 2, 5],
            }),
            summary: Summary::Centroids(Matrix::zeros(2, 2)),
        });
        let (frame, info) = encode(&msg);
        // Mask parameters are framing overhead, not summary statistics.
        assert_eq!(info.stat_bytes, 2 * 2 * 8);
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn truncated_and_corrupt_frames_error() {
        let (frame, _) = encode(&Msg::MeanQuery);
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut={cut}");
        }
        let mut bad_tag = frame.clone();
        bad_tag[LEN_PREFIX] = 200;
        assert_eq!(decode_frame(&bad_tag), Err(WireError::BadTag(200)));
        let mut lying_len = frame;
        lying_len[0] = 0xFF;
        lying_len[1] = 0xFF;
        lying_len[2] = 0xFF;
        lying_len[3] = 0x7F;
        assert!(decode_frame(&lying_len).is_err());
    }

    /// Serves fixed bytes, then EOF, recording the largest buffer any
    /// `read` call was handed.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn huge_prefix_with_short_payload_is_truncated_without_a_huge_buffer() {
        let mut bytes = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = Recording {
            bytes: &bytes,
            largest: 0,
        };
        assert_eq!(read_frame(&mut r), Err(WireError::Truncated));
        assert!(r.largest <= 64 * 1024, "read buffer of {} bytes", r.largest);

        // A whole frame still reads back byte for byte.
        let (frame, _) = encode(&Msg::SeedMass { mass: 2.5 });
        let mut r = Recording {
            bytes: &frame,
            largest: 0,
        };
        assert_eq!(read_frame(&mut r).unwrap(), frame);
        assert_eq!(read_frame(&mut r), Err(WireError::Closed));
    }
}

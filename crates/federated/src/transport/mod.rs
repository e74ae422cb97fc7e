//! Transport abstraction: how framed protocol messages move between the
//! server and its clients.
//!
//! A [`Connection`] is one bidirectional, blocking, framed channel to a
//! single client. Every implementation routes messages through
//! [`crate::wire`] — encode on send, decode on recv — so byte
//! measurements and `f64` bit patterns are identical no matter which
//! backend carries the frames:
//!
//! * [`local`] — in-memory frames, fully synchronous, zero threads; the
//!   backend behind [`FkM::run`](crate::FkM::run) and every existing
//!   test.
//! * [`tcp`] — loopback/network TCP over `std::net`, with a
//!   non-blocking accept loop on the server and a blocking serve loop on
//!   the client.
//!
//! Adding a backend means implementing [`Connection`] (plus whatever
//! listener/dialer setup it needs); the protocol, server, and client
//! layers never change.

pub mod local;
pub mod tcp;

use crate::protocol::Msg;
use crate::wire::FrameInfo;
use kr_core::{CoreError, Result};
use kr_linalg::{parallel, ExecCtx};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One framed, blocking, bidirectional channel between the server and a
/// single client.
pub trait Connection: Send {
    /// Encodes and delivers one message, returning the measured sizes
    /// of the frame that carried it.
    fn send(&mut self, msg: &Msg) -> Result<FrameInfo>;

    /// Receives and decodes the next message. `Ok(None)` means the peer
    /// closed the channel cleanly at a frame boundary.
    fn recv(&mut self) -> Result<Option<(Msg, FrameInfo)>>;

    /// Bounds how long the next `recv`s may block: `Some(d)` arms a
    /// per-round read deadline, `None` restores the backend's default.
    /// A deadline expiry surfaces as [`CoreError::Timeout`]. Backends
    /// without wall-clock blocking (the in-process local transport,
    /// where every reply is already queued) ignore deadlines — their
    /// `recv` never waits, so the deadline is vacuously met.
    fn set_deadline(&mut self, _deadline: Option<Duration>) -> Result<()> {
        Ok(())
    }
}

/// How a per-round client failure is classified — drives the server's
/// recovery decision and is reported in
/// [`RoundStats::failures`](crate::RoundStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The client missed the round deadline (or its reply frame was
    /// dropped in transit). The shard sits out the round and is
    /// re-admitted with a catch-up broadcast.
    Timeout,
    /// The client's reply failed to decode (truncated or corrupt
    /// frame) or violated the protocol. The shard sits out the round.
    Corrupt,
    /// The client's channel closed; the shard leaves the federation for
    /// the rest of the run.
    Disconnected,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::Corrupt => write!(f, "corrupt"),
            FailureKind::Disconnected => write!(f, "disconnected"),
        }
    }
}

/// Classifies a `recv`/`send` error: typed deadline expiries are
/// [`FailureKind::Timeout`]; everything else (decode corruption,
/// protocol violations, I/O faults) is [`FailureKind::Corrupt`].
/// Disconnects are detected structurally — `recv` returning `Ok(None)`
/// — not from an error value.
pub fn classify(err: &CoreError) -> FailureKind {
    match err {
        CoreError::Timeout(_) => FailureKind::Timeout,
        _ => FailureKind::Corrupt,
    }
}

/// Receives the next message, treating a clean close as a protocol
/// error (for the server side, where every recv expects a reply).
pub fn recv_expected<C: Connection>(conn: &mut C) -> Result<(Msg, FrameInfo)> {
    conn.recv()?
        .ok_or_else(|| CoreError::Transport("client closed the connection mid-protocol".into()))
}

/// Runs `f` once per connection — the server's per-connection workers —
/// and returns the results **indexed by connection order** (see
/// [`fold_connections`]).
pub fn for_each_connection<C, T, F>(exec: &ExecCtx, conns: &mut [C], f: F) -> Result<Vec<T>>
where
    C: Connection,
    T: Send,
    F: Fn(usize, &mut C) -> Result<T> + Sync,
{
    let mut out = Vec::with_capacity(conns.len());
    fold_connections(exec, conns, f, |_, r| out.push(r));
    out.into_iter().collect()
}

/// Runs `f` once per connection and hands each result to `fold` in
/// ascending connection order, as soon as every lower connection's
/// result is in.
///
/// Jobs are scheduled on `exec`'s pool ([`kr_linalg::pool`]), so up to
/// `exec.threads()` connections are serviced concurrently (each job may
/// block on its client's reply without stalling the others). A result
/// that completes ahead of a lower connection's is held until then; a
/// serial `exec` visits the connections in order and holds none. The
/// fold order, not the wall-clock order, is what keeps every merge
/// bitwise deterministic no matter how replies interleave.
pub fn fold_connections<C, T, F, G>(exec: &ExecCtx, conns: &mut [C], f: F, fold: G)
where
    C: Connection,
    T: Send,
    F: Fn(usize, &mut C) -> T + Sync,
    G: FnMut(usize, T) + Send,
{
    struct Order<T, G> {
        next: usize,
        held: Vec<Option<T>>,
        fold: G,
    }
    let order = Mutex::new(Order {
        next: 0,
        held: Vec::new(),
        fold,
    });
    let mut slots: Vec<(usize, &mut C)> = conns.iter_mut().enumerate().collect();
    parallel::map_rows_into(exec, &mut slots, 1, 1, |_, chunk| {
        for (i, conn) in chunk.iter_mut() {
            let value = f(*i, conn);
            let mut guard = order.lock().unwrap_or_else(PoisonError::into_inner);
            let o = &mut *guard;
            if *i != o.next {
                if o.held.len() <= *i {
                    o.held.resize_with(*i + 1, || None);
                }
                o.held[*i] = Some(value);
                continue;
            }
            (o.fold)(*i, value);
            o.next += 1;
            while let Some(v) = o.held.get_mut(o.next).and_then(Option::take) {
                (o.fold)(o.next, v);
                o.next += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use std::collections::VecDeque;

    /// A scripted in-memory connection for exercising the helpers.
    struct Scripted {
        replies: VecDeque<Msg>,
        sent: usize,
    }

    impl Connection for Scripted {
        fn send(&mut self, msg: &Msg) -> Result<FrameInfo> {
            self.sent += 1;
            let (_, info) = wire::encode(msg);
            Ok(info)
        }

        fn recv(&mut self) -> Result<Option<(Msg, FrameInfo)>> {
            Ok(self.replies.pop_front().map(|m| {
                let (frame, _) = wire::encode(&m);
                let info = FrameInfo {
                    frame_bytes: frame.len(),
                    stat_bytes: wire::stat_bytes(&m),
                };
                (m, info)
            }))
        }
    }

    #[test]
    fn results_come_back_in_connection_order() {
        for threads in [1usize, 4] {
            let exec = ExecCtx::threaded(threads);
            let mut conns: Vec<Scripted> = (0..7)
                .map(|i| Scripted {
                    replies: VecDeque::from([Msg::SeedMass { mass: i as f64 }]),
                    sent: 0,
                })
                .collect();
            let masses = for_each_connection(&exec, &mut conns, |i, c| {
                c.send(&Msg::MeanQuery)?;
                match recv_expected(c)? {
                    (Msg::SeedMass { mass }, _) => Ok((i, mass)),
                    other => panic!("unexpected {other:?}"),
                }
            })
            .unwrap();
            let expect: Vec<(usize, f64)> = (0..7).map(|i| (i, i as f64)).collect();
            assert_eq!(masses, expect, "threads={threads}");
            assert!(conns.iter().all(|c| c.sent == 1));
        }
    }

    #[test]
    fn clean_close_is_an_error_for_the_server() {
        let mut conn = Scripted {
            replies: VecDeque::new(),
            sent: 0,
        };
        assert!(matches!(
            recv_expected(&mut conn),
            Err(CoreError::Transport(_))
        ));
    }
}

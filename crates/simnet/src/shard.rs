//! Conservative parallel executor for the sharded engine.
//!
//! Classic conservative PDES with per-channel (CMB-style) lookahead: every
//! cross-shard effect in the engine travels as an event delayed by at least
//! one link latency (dial handshakes, deliveries, FINs, relay hops), and the
//! floor latency of a `src → dst` shard pair is the *channel lookahead*.
//! Horizons use the metric closure `L` of those per-link floors — the
//! earliest one shard can influence another through any chain of pushes,
//! possibly relayed via intermediate shards ([`crate::Sim::lookahead_matrix`]).
//! Each epoch, every shard publishes its next pending event time `t_j`, then
//! shard `i` processes its own queue strictly below its private horizon
//!
//! ```text
//! h_i = min( min over j != i of (t_j + L[j][i]),
//!            min over own pushes p of (at_p + L[dst_p][i]) )
//! ```
//!
//! — the earliest instant any *other* shard could still inject an event into
//! `i`. The first term covers peers with published work; idle peers
//! (`t_j = ∞`) impose nothing up front. The second term is maintained
//! *dynamically while processing* (`SimCore::route` shrinks the horizon on
//! every cross-shard push): waking a peer with an event at `at_p` can draw a
//! reaction back no earlier than `at_p + L[dst_p][i]`, and since
//! `at_p ≥ now + direct[i][dst_p]`, the shrunk bound always stays ahead of
//! the event being processed. No event processed inside an epoch can
//! schedule work for another shard inside that shard's same window, so the
//! mailboxes drained after the barrier always carry strictly-future events
//! and the merged execution is identical to the sequential one. Compared to a
//! single global `T_min + min(L)` horizon, this lets shards that only talk
//! over wide-area links take much larger steps, and a shard that pushes
//! nothing cross-shard drains its entire backlog in one epoch even while
//! its peers idle.
//!
//! Epoch shape (two barriers per epoch):
//!
//! 1. every shard drains the mailboxes addressed to it into its wheel, in
//!    place, handing the emptied (capacity-preserving) buffer back for the
//!    sender's next swap; then it publishes its next pending event time and
//!    its event count. Barrier.
//! 2. every shard reads the same published snapshot and decides
//!    termination and overflow for itself, so all of them agree without a
//!    leader. If not done, it computes its own horizon `h_i` from the
//!    published times, processes its events in `[now, h_i)`, buffering
//!    cross-shard pushes in per-destination outboxes, then *swaps* each
//!    non-empty outbox into the shared `(src, dst)` mailbox cell — one
//!    lock and one pointer swap per pair per epoch, no per-event copying.
//!    Barrier.
//!
//! The published values are written only in phase 1 and read only in
//! phase 2, with a barrier on either side of the reads, so every shard sees
//! one consistent snapshot. Mailbox cells are `Mutex<Vec<…>>`, but the
//! phases never contend: a cell is written only by its `src` shard
//! (phase 2) and read only by its `dst` shard (the next phase 1), with a
//! barrier between — the lock is always uncontended and costs one atomic
//! pair. Because phase 2 swaps whole buffers instead of
//! copying events, the outbox and the cell buffer ping-pong between the two
//! shards and steady state allocates nothing. The terminating iteration
//! drains the last epoch's mailboxes before it decides, so a run leaves
//! every cell empty.
//!
//! The sync checks — a cell is drained before it is refilled, every
//! drained event is at or beyond the receiver's last horizon, and each
//! push clears its channel lookahead (in `SimCore::route`) — are plain
//! `assert!`s: release runs check them too, and a one-shard run never
//! reaches them.

use crate::ctx::Actor;
use crate::dispatch::Shard;
use crate::state::OutEv;
use crate::time::{Dur, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// One `(src, dst)` mailbox cell of the cross-shard exchange matrix.
type MailboxCell<M, C> = Mutex<Vec<OutEv<M, C>>>;

/// Drive every shard to virtual time `t` (inclusive), under conservative
/// epoch synchronization with the given per-pair lookahead matrices
/// (row-major, `[src * n + dst]`): `direct` is the per-link channel floor
/// each individual push respects (asserted in `route`), `closure` its
/// metric closure — the earliest one shard can influence another through
/// any chain of pushes, which is what the horizons must use. Each shard
/// enters `2·epochs + 1` barriers. Panics (after joining the workers) if
/// the aggregate event count exceeds `max_events`.
pub(crate) fn run_epochs<A: Actor>(
    shards: &mut [Shard<A>],
    direct: &[Dur],
    closure: &[Dur],
    max_events: u64,
    t: SimTime,
) {
    let n = shards.len();
    debug_assert!(n > 1, "single-shard runs use the sequential path");
    debug_assert_eq!(direct.len(), n * n, "lookahead matrix must be n×n");
    debug_assert_eq!(closure.len(), n * n, "lookahead closure must be n×n");
    let mailboxes: Vec<MailboxCell<A::Msg, A::Cmd>> =
        (0..n * n).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(n);
    let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let ev_count: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // Telemetry records per thread: each worker hands its sink back.
    let recording = telemetry::enabled();

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(n);
        for (i, shard) in shards.iter_mut().enumerate() {
            let mailboxes = &mailboxes;
            let barrier = &barrier;
            let next_at = &next_at;
            let ev_count = &ev_count;
            workers.push(scope.spawn(move || {
                shard.core.lookahead_to = (0..n).map(|dst| direct[i * n + dst]).collect();
                shard.core.closure_from = (0..n).map(|src| closure[src * n + i]).collect();
                // Wall-clock epoch profiling is opt-in; the deterministic
                // sync counters below are always maintained (plain u64
                // increments, surfaced by `repro budget`).
                telemetry::set_enabled(recording);
                let clock = || recording.then(telemetry::profile::now_us).unwrap_or(0);
                // The horizon this shard last processed up to: everything
                // its inbound mailboxes carry is at or beyond it.
                let mut h = 0;
                loop {
                    let epoch_t0 = clock();
                    let dispatched_before = shard.core.stats.dispatched;
                    // Phase 1: drain inbound mailboxes in place (the cell
                    // keeps its capacity for the src shard's next swap),
                    // then publish local state.
                    for src in 0..n {
                        if src == i {
                            continue;
                        }
                        let mut cell = mailboxes[src * n + i].lock().expect("mailbox poisoned");
                        for e in cell.drain(..) {
                            assert!(
                                e.at.0 >= h,
                                "mailbox event below the epoch horizon \
                                 (at {:?}, horizon {h})",
                                e.at
                            );
                            shard.core.enqueue_local(e.at, e.key, e.ev);
                        }
                    }
                    let mine = match shard.core.queue.peek_at() {
                        Some(at) if at <= t => at.0,
                        _ => u64::MAX,
                    };
                    next_at[i].store(mine, Ordering::SeqCst);
                    ev_count[i].store(shard.core.stats.events, Ordering::SeqCst);
                    shard.core.sync.barrier_waits += 1;
                    barrier.wait();
                    // Phase 2: every shard reads the same snapshot, so all
                    // of them stop in the same iteration. Overflow is
                    // reported after the join, from the same counts.
                    let idle = next_at.iter().all(|a| a.load(Ordering::SeqCst) == u64::MAX);
                    let total: u64 = ev_count.iter().map(|a| a.load(Ordering::SeqCst)).sum();
                    if total > max_events || idle {
                        shard.core.lookahead_to.clear();
                        shard.core.closure_from.clear();
                        shard.core.epoch_horizon = u64::MAX;
                        shard.core.now = shard.core.now.max(t);
                        break;
                    }
                    shard.core.sync.epochs += 1;
                    // Per-channel horizon: the earliest instant any *awake*
                    // peer's pending events could influence this shard.
                    // Idle peers (`t_j = ∞`) impose nothing up front — but
                    // every cross-shard push made below shrinks the horizon
                    // to `at + closure[dst][i]` (see `SimCore::route`), the
                    // earliest the woken shard's reaction can arrive back,
                    // so the bound stays conservative while a shard that
                    // pushes nothing drains its whole backlog in one epoch.
                    // The diagonal is `NO_LINK`: a shard never bounds itself.
                    shard.core.epoch_horizon = (0..n)
                        .map(|j| {
                            next_at[j]
                                .load(Ordering::SeqCst)
                                .saturating_add(closure[j * n + i].0)
                        })
                        .min()
                        .unwrap_or(u64::MAX);
                    // Process the epoch window (re-reading the dynamic
                    // horizon every step), then swap outboxes into the
                    // shared mailbox matrix (one lock + one pointer swap
                    // per non-empty pair).
                    let work_t0 = clock();
                    while shard.step_bounded(Some(shard.core.epoch_horizon), t) {}
                    h = shard.core.epoch_horizon;
                    let mut mb_events: u64 = 0;
                    for dst in 0..n {
                        if dst == i || shard.core.outbox[dst].is_empty() {
                            continue;
                        }
                        mb_events += shard.core.outbox[dst].len() as u64;
                        let mut cell = mailboxes[i * n + dst].lock().expect("mailbox poisoned");
                        assert!(cell.is_empty(), "mailbox cell not drained");
                        // The buffer coming back is the one `dst` drained
                        // (and emptied, capacity intact) this epoch.
                        std::mem::swap(&mut *cell, &mut shard.core.outbox[dst]);
                    }
                    let mb_bytes = mb_events * std::mem::size_of::<OutEv<A::Msg, A::Cmd>>() as u64;
                    shard.core.sync.mailbox_events_out += mb_events;
                    shard.core.sync.mailbox_bytes_out += mb_bytes;
                    let work_end = clock();
                    shard.core.sync.barrier_waits += 1;
                    barrier.wait();
                    if recording {
                        let end = clock();
                        telemetry::profile::epoch_sample(telemetry::profile::EpochSample {
                            shard: i as u16,
                            t0_us: epoch_t0,
                            total_us: end.saturating_sub(epoch_t0),
                            work_start_us: work_t0.saturating_sub(epoch_t0),
                            work_us: work_end.saturating_sub(work_t0),
                            events: shard.core.stats.dispatched - dispatched_before,
                            mailbox_events: mb_events,
                            mailbox_bytes: mb_bytes,
                            queue_len: shard.core.queue.len() as u64,
                        });
                    }
                }
                recording.then(|| {
                    telemetry::set_enabled(false);
                    telemetry::take()
                })
            }));
        }
        for worker in workers {
            match worker.join() {
                Ok(sink) => sink.into_iter().for_each(telemetry::absorb),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    // No shard processes anything after the snapshot it stopped on, so
    // these are the counts every shard just compared against the cap.
    let total: u64 = shards.iter().map(|sh| sh.core.stats.events).sum();
    if total > max_events {
        panic!("simulation exceeded max_events = {max_events}");
    }
}

//! Property tests: the hierarchical timer wheel must order events exactly
//! like the reference `BinaryHeap` scheduler it replaced.

use proptest::prelude::*;
use simnet::{SimTime, TimerWheel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference scheduler: a global min-heap on `(time, seq)` — the
/// pre-timer-wheel implementation of the engine queue.
#[derive(Clone, Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl RefHeap {
    fn push(&mut self, at: u64, seq: u64, item: u32) {
        self.heap.push(Reverse((at, seq, item)));
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(t)| t)
    }
}

/// One scripted operation against both schedulers.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `delay` ns after the current virtual time.
    Push { delay: u64 },
    /// Pop the next event (advances virtual time).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Delays spanning every band: zero-delay self-posts, near wheel,
    // coarse wheel, far heap (hours and beyond); one third pops.
    (any::<u64>(), any::<u64>()).prop_map(|(sel, raw)| match sel % 6 {
        0 => Op::Push { delay: 0 },
        1 => Op::Push {
            delay: 1 + raw % ((1u64 << 21) - 1),
        },
        2 => Op::Push {
            delay: (1u64 << 21) + raw % ((1u64 << 33) - (1u64 << 21)),
        },
        3 => Op::Push {
            delay: (1u64 << 33) + raw % ((1u64 << 47) - (1u64 << 33)),
        },
        _ => Op::Pop,
    })
}

/// A wheel and the reference it must agree with, plus the script's
/// virtual clock. Cloning it forks the wheel mid-script.
#[derive(Clone, Default)]
struct Pair {
    wheel: TimerWheel<u32>,
    reference: RefHeap,
    now: u64,
    seq: u64,
    queued: u64,
}

impl Pair {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Push { delay } => {
                let at = self.now.saturating_add(*delay);
                self.wheel.push(SimTime(at), self.seq, self.seq as u32);
                self.reference.push(at, self.seq, self.seq as u32);
                self.seq += 1;
                self.queued += 1;
            }
            Op::Pop => {
                let got = self.wheel.pop().map(|(t, s, i)| (t.0, s, i));
                let want = self.reference.pop();
                prop_assert_eq!(got, want, "pop mismatch mid-script");
                if let Some((t, _, _)) = got {
                    prop_assert!(t >= self.now, "time went backwards");
                    self.now = t;
                    self.queued -= 1;
                }
            }
        }
        prop_assert_eq!(self.wheel.len() as u64, self.queued);
    }

    /// Every remaining event must come out in the reference's
    /// `(time, seq)` order.
    fn drain(&mut self) {
        loop {
            let got = self.wheel.pop().map(|(t, s, i)| (t.0, s, i));
            let want = self.reference.pop();
            prop_assert_eq!(got, want, "drain mismatch");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(self.wheel.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wheel is cloned at a random point of the script; the original
    /// and the fork each run the rest of it (pushes reuse freed nodes, pops
    /// drain slots staged before the fork) and drain against their own
    /// copy of the reference.
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        fork_at in any::<usize>(),
    ) {
        let fork_at = fork_at % ops.len();
        let mut pair = Pair::default();
        let mut fork = None;
        for (i, op) in ops.iter().enumerate() {
            if i == fork_at {
                fork = Some(pair.clone());
            }
            pair.apply(op);
            if let Some(f) = fork.as_mut() {
                f.apply(op);
            }
        }
        pair.drain();
        fork.expect("fork_at < ops.len()").drain();
    }

    #[test]
    fn peek_never_changes_pop_order(delays in proptest::collection::vec(0u64..1u64 << 46, 1..120)) {
        let mut with_peek: TimerWheel<u32> = TimerWheel::new();
        let mut without: TimerWheel<u32> = TimerWheel::new();
        for (i, d) in delays.iter().enumerate() {
            with_peek.push(SimTime(*d), i as u64, i as u32);
            without.push(SimTime(*d), i as u64, i as u32);
            // Interleave peeks on one of the wheels only.
            let _ = with_peek.peek_at();
        }
        loop {
            prop_assert_eq!(with_peek.peek_at(), without.peek_at());
            let a = with_peek.pop().map(|(t, s, i)| (t.0, s, i));
            let b = without.pop().map(|(t, s, i)| (t.0, s, i));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

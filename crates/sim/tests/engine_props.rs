//! Property tests for the timer-wheel event list: order-equivalence against
//! a reference binary-heap model and monotonic delivery under random
//! interleavings of `schedule` / `schedule_in` / `pop` / `pop_until`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pmnet_sim::{Dur, Engine, NodeId, Time};
use proptest::prelude::*;

/// The pre-wheel event list: a plain binary heap over `(time, seq)`.
/// This is the behavioral oracle the wheel must match exactly.
struct RefEngine {
    heap: BinaryHeap<RefEvent>,
    now: Time,
    seq: u64,
}

struct RefEvent {
    at: Time,
    seq: u64,
    dest: NodeId,
    msg: u64,
}

impl PartialEq for RefEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for RefEvent {}
impl PartialOrd for RefEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl RefEngine {
    fn new() -> Self {
        RefEngine {
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
        }
    }
    fn schedule(&mut self, at: Time, dest: NodeId, msg: u64) {
        assert!(at >= self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(RefEvent { at, seq, dest, msg });
    }
    fn pop(&mut self) -> Option<(Time, NodeId, u64)> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some((ev.at, ev.dest, ev.msg))
    }
    fn pop_until(&mut self, deadline: Time) -> Option<(Time, NodeId, u64)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }
    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }
}

/// The wheel's tick width in nanoseconds (level-0 slot granularity).
const TICK: u64 = 256;

/// One step of the interleaved workload. Delays are biased so events land
/// on every wheel level and in the overflow heap (the horizon is 2^32 ns).
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule {
        delay: u64,
        dest: u32,
    },
    /// Schedule at `offset` ns into the tick `ticks` ahead of the cursor's
    /// (clamped to now): few distinct offsets, so one tick collects many
    /// distinct-ns and equal-ns events, some placed from an upper level.
    ScheduleInTick {
        ticks: u64,
        offset: u64,
        dest: u32,
    },
    Pop,
    /// `pop_until(now + ahead)`.
    PopUntil {
        ahead: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let schedule =
        |lo: u64, hi: u64| (lo..hi, 0u32..8).prop_map(|(delay, dest)| Op::Schedule { delay, dest });
    prop_oneof![
        // Short delays dominate, as in real packet traffic: many events
        // inside one 256 ns tick, distinct and equal timestamps.
        schedule(0, 4),
        schedule(0, TICK),
        schedule(0, 16_384),
        // Level 1 (RTT-scale) and level 2 (1-8 ms retry timers, whose
        // slots drain and release on cascade).
        schedule(16_384, 1 << 20),
        schedule(1_000_000, 8_000_000),
        // Level 3 and the overflow heap.
        schedule(0, 1 << 33),
        (0u64..3, 0u64..4, 0u32..8).prop_map(|(ticks, offset, dest)| Op::ScheduleInTick {
            ticks,
            offset: offset * 85,
            dest,
        }),
        // Upper-level events aimed at a tick that later turns active.
        (60u64..140, 0u64..4, 0u32..8).prop_map(|(ticks, offset, dest)| Op::ScheduleInTick {
            ticks,
            offset: offset * 85,
            dest,
        }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        prop_oneof![0u64..TICK, 0u64..100_000, Just(0u64)].prop_map(|ahead| Op::PopUntil { ahead }),
    ]
}

/// The absolute time an op schedules at, given the current clock.
fn target(now: Time, op: Op) -> Option<(Time, u32)> {
    match op {
        Op::Schedule { delay, dest } => Some((now + Dur::nanos(delay), dest)),
        Op::ScheduleInTick {
            ticks,
            offset,
            dest,
        } => {
            let at = (now.as_nanos() / TICK + ticks) * TICK + offset;
            Some((Time::from_nanos(at.max(now.as_nanos())), dest))
        }
        Op::Pop | Op::PopUntil { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wheel delivers the exact same (time, dest, msg) sequence as the
    /// reference heap for any interleaving of schedules and pops, and
    /// `peek_time`/`pending`/`now` agree at every step.
    #[test]
    fn wheel_matches_reference_heap(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut wheel: Engine<u64> = Engine::new();
        let mut reference = RefEngine::new();
        let mut tag = 0u64;
        for op in ops {
            match op {
                Op::Pop => prop_assert_eq!(wheel.pop(), reference.pop()),
                Op::PopUntil { ahead } => {
                    let before = wheel.now();
                    let deadline = before + Dur::nanos(ahead);
                    let got = wheel.pop_until(deadline);
                    prop_assert_eq!(got, reference.pop_until(deadline));
                    if got.is_none() {
                        prop_assert_eq!(wheel.now(), before);
                    }
                }
                _ => {
                    let (at, dest) = target(wheel.now(), op).expect("schedule op");
                    wheel.schedule(at, dest, tag);
                    reference.schedule(at, NodeId(dest), tag);
                    tag += 1;
                }
            }
            prop_assert_eq!(wheel.peek_time(), reference.peek_time());
            prop_assert_eq!(wheel.now(), reference.now);
            prop_assert_eq!(wheel.pending(), reference.heap.len());
        }
        // Drain both and compare the tails.
        loop {
            let (a, b) = (wheel.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Delivery timestamps never decrease, regardless of how schedules and
    /// pops interleave (the `Engine::pop` clock-regression invariant).
    #[test]
    fn delivery_is_monotonic(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut e: Engine<u64> = Engine::new();
        let mut last = Time::ZERO;
        let mut tag = 0u64;
        for op in ops {
            let popped = match op {
                Op::Pop => e.pop(),
                Op::PopUntil { ahead } => {
                    let deadline = e.now() + Dur::nanos(ahead);
                    let got = e.pop_until(deadline);
                    if let Some((at, _, _)) = got {
                        prop_assert!(at <= deadline, "popped {} past deadline {}", at, deadline);
                    }
                    got
                }
                _ => {
                    let (at, dest) = target(e.now(), op).expect("schedule op");
                    e.schedule(at, dest, tag);
                    tag += 1;
                    None
                }
            };
            if let Some((at, _, _)) = popped {
                prop_assert!(at >= last, "clock regressed: {} < {}", at, last);
                prop_assert_eq!(e.now(), at);
                last = at;
            }
        }
        while let Some((at, _, _)) = e.pop() {
            prop_assert!(at >= last, "clock regressed: {} < {}", at, last);
            last = at;
        }
    }

    /// Simultaneous events pop in schedule order even when they were
    /// scheduled from different `now` cursors (and so landed on different
    /// wheel levels).
    #[test]
    fn simultaneous_events_fifo_across_levels(
        target in 100u64..8_000_000,
        early in prop::collection::vec(0u64..1_000_000, 1..20),
    ) {
        let mut e: Engine<u64> = Engine::new();
        let at = Time::from_nanos(target);
        let mut tag = 0u64;
        e.schedule(at, 0, tag);
        tag += 1;
        // Interleave: pop intermediate events forward, scheduling another
        // event at the same target instant after each advance.
        for d in early {
            if e.now().as_nanos() + d < target {
                e.schedule(Time::from_nanos(e.now().as_nanos() + d), 1, u64::MAX);
                while e.peek_time().is_some_and(|t| t < at) {
                    e.pop();
                }
            }
            e.schedule(at, 0, tag);
            tag += 1;
        }
        let mut seen = Vec::new();
        while let Some((t, _, m)) = e.pop() {
            prop_assert_eq!(t, at);
            seen.push(m);
        }
        let expect: Vec<u64> = (0..tag).collect();
        prop_assert_eq!(seen, expect);
    }
}

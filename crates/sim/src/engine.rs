//! The future-event list: a hierarchical timer wheel with stable FIFO
//! ordering among simultaneous events.
//!
//! The event list is the hottest structure in the simulator: every packet
//! hop, timer, and injection passes through it twice (schedule + pop). A
//! binary heap gives `O(log n)` per operation; the hierarchical timer wheel
//! used here (Varghese & Lauck) gives amortized `O(1)` for the short-delay
//! events that dominate PMNet traffic. The wheel slots 256 ns ticks, not
//! nanoseconds: every hop under ~16 µs (serialization, propagation, host
//! stack, PM persist, switch pipeline) inserts straight into level 0 and is
//! never cascaded, and RTT-scale timers sit in levels 1–2. Events beyond
//! the wheel horizon (~4.3 s of simulated time) fall back to an overflow
//! heap.
//!
//! Determinism is preserved exactly: events are delivered in `(time, seq)`
//! order, where `seq` is the global schedule counter, matching the previous
//! heap implementation bit for bit. Property tests check order-equivalence
//! against a reference model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::Time;

/// Identifies a node (component) in the simulated system.
///
/// `NodeId` is an index into the world's node table; it is allocated by the
/// runtime layer (`pmnet-net`) when components are added to a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

struct Scheduled<M> {
    at: Time,
    seq: u64,
    dest: NodeId,
    msg: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event (and, for
        // ties, the earliest-scheduled event) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the wheel tick in nanoseconds: slots index 256 ns ticks, so
/// one level-0 slot holds every event of one tick, in several timestamps.
const TICK_SHIFT: u32 = 8;
/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64, so one `u64` occupancy bitmap per level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. A level-`i` slot spans `64^i` ticks.
const LEVELS: usize = 4;
/// Delays of at least this many ticks go to the overflow heap
/// (`64^4` ticks of 256 ns ≈ 4.3 s of simulated time).
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// The wheel tick holding timestamp `at`.
#[inline]
fn tick(at: Time) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// Wheel level for a delay of `delta` ticks, strictly below [`HORIZON`].
#[inline]
fn level_for(delta: u64) -> usize {
    debug_assert!(delta < HORIZON);
    if delta < SLOTS as u64 {
        0
    } else {
        ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
    }
}

/// Slot index for an absolute tick at a given level.
#[inline]
fn slot_for(tick: u64, level: usize) -> usize {
    ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// Where the earliest event above level 0 lives: `(at, level, slot)`, with
/// `level == LEVELS` marking the overflow heap.
type Loc = (Time, usize, usize);

struct Slot<M> {
    /// Unordered, except in a `sorted` level-0 slot.
    events: Vec<Scheduled<M>>,
    /// Earliest timestamp among `events` (levels `>= 1` only); meaningless
    /// when empty.
    min_at: Time,
    /// Level 0 only: `events` is sorted descending by `(at, seq)`, so the
    /// back is the next delivery. A slot is sorted once, when it becomes
    /// the earliest occupied one; later inserts into it keep the order by
    /// binary insertion, and it turns unsorted again when it drains.
    sorted: bool,
}

struct Level<M> {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: Vec<Slot<M>>,
}

impl<M> Level<M> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS)
                .map(|_| Slot {
                    events: Vec::new(),
                    min_at: Time::ZERO,
                    sorted: false,
                })
                .collect(),
        }
    }
}

/// A generic discrete-event engine.
///
/// The engine owns the simulated clock and the future-event list. It knows
/// nothing about what messages mean; the runtime layer pops events and
/// routes them to node handlers.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (stable FIFO), which keeps simulations deterministic.
///
/// # Example
///
/// ```
/// use pmnet_sim::{Engine, NodeId, Time, Dur};
///
/// let mut e: Engine<u32> = Engine::new();
/// e.schedule_in(Dur::micros(1), 7, 42);
/// let (at, dest, msg) = e.pop().unwrap();
/// assert_eq!(at, Time::ZERO + Dur::micros(1));
/// assert_eq!(dest, NodeId(7));
/// assert_eq!(msg, 42);
/// assert_eq!(e.now(), at);
/// ```
pub struct Engine<M> {
    levels: Vec<Level<M>>,
    /// Events scheduled beyond the wheel horizon, earliest `(at, seq)` first.
    overflow: BinaryHeap<Scheduled<M>>,
    now: Time,
    seq: u64,
    delivered: u64,
    pending: usize,
    inserts: u64,
    /// Memoized [`Engine::earliest_higher`]; `None` when stale. An insert
    /// keeps it exact (a new upper-level event can only lower the
    /// minimum), so only a cascade, which removes events from above level
    /// 0, forces a rescan.
    higher: Option<Option<Loc>>,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Engine {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            delivered: 0,
            pending: 0,
            inserts: 0,
            higher: Some(None),
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of insertions into a wheel slot or the overflow heap so far,
    /// counting both schedules and cascade moves. Divided by
    /// [`Engine::delivered`] it prices the wheel's bookkeeping per event:
    /// 1.0 means every event was placed once and never cascaded.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Schedules `msg` for delivery to `dest` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: the simulated past is
    /// immutable.
    pub fn schedule(&mut self, at: Time, dest: impl Into<NodeId>, msg: M) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.insert(Scheduled {
            at,
            seq,
            dest: dest.into(),
            msg,
        });
    }

    /// Schedules `msg` for delivery to `dest` after `delay`.
    pub fn schedule_in(&mut self, delay: crate::Dur, dest: impl Into<NodeId>, msg: M) {
        let at = self.now + delay;
        self.schedule(at, dest, msg);
    }

    /// Places an event into the wheel level matching its delay in ticks,
    /// or the overflow heap if it lies beyond the horizon. `ev.at >=
    /// self.now` must hold.
    fn insert(&mut self, ev: Scheduled<M>) {
        self.inserts += 1;
        let at = ev.at;
        let delta = tick(at) - tick(self.now);
        let loc = if delta >= HORIZON {
            self.overflow.push(ev);
            (at, LEVELS, 0)
        } else {
            let lvl = level_for(delta);
            let s = slot_for(tick(at), lvl);
            let level = &mut self.levels[lvl];
            level.occupied |= 1 << s;
            let slot = &mut level.slots[s];
            if lvl == 0 {
                if slot.sorted {
                    let key = (at, ev.seq);
                    let i = slot.events.partition_point(|e| (e.at, e.seq) > key);
                    slot.events.insert(i, ev);
                } else {
                    slot.events.push(ev);
                }
                return;
            }
            if slot.events.is_empty() || at < slot.min_at {
                slot.min_at = at;
            }
            slot.events.push(ev);
            (at, lvl, s)
        };
        if let Some(h) = &mut self.higher {
            if h.is_none_or(|(m, _, _)| at < m) {
                *h = Some(loc);
            }
        }
    }

    /// First occupied level-0 slot, scanning circularly from the cursor.
    /// Level-0 events all lie in the 64 ticks from the cursor's, one tick
    /// per slot, so this slot holds the level's earliest events.
    fn level0_slot(&self) -> Option<usize> {
        let occ = self.levels[0].occupied;
        if occ == 0 {
            return None;
        }
        let start = (tick(self.now) & (SLOTS as u64 - 1)) as u32;
        let d = occ.rotate_right(start).trailing_zeros();
        Some(((start + d) as usize) & (SLOTS - 1))
    }

    /// Candidate slots holding the earliest events of a level `>= 1`: the
    /// cursor's own slot (which may mix the current tick with one full
    /// rotation later) and the first occupied slot after it. The level's
    /// minimum timestamp is the smaller `min_at` of the two.
    fn level_candidates(&self, lvl: usize) -> [Option<usize>; 2] {
        let level = &self.levels[lvl];
        if level.occupied == 0 {
            return [None, None];
        }
        let cur = slot_for(tick(self.now), lvl) as u32;
        let c0 = if level.occupied & (1 << cur) != 0 {
            Some(cur as usize)
        } else {
            None
        };
        let rest = level.occupied.rotate_right(cur) & !1;
        let c1 = if rest != 0 {
            Some(((cur + rest.trailing_zeros()) as usize) & (SLOTS - 1))
        } else {
            None
        };
        [c0, c1]
    }

    /// Earliest event among levels `>= 1` and the overflow heap.
    fn earliest_higher(&self) -> Option<Loc> {
        let mut best: Option<Loc> = None;
        for lvl in 1..LEVELS {
            for slot in self.level_candidates(lvl).into_iter().flatten() {
                let m = self.levels[lvl].slots[slot].min_at;
                if best.is_none_or(|(b, _, _)| m < b) {
                    best = Some((m, lvl, slot));
                }
            }
        }
        if let Some(top) = self.overflow.peek() {
            if best.is_none_or(|(b, _, _)| top.at < b) {
                best = Some((top.at, LEVELS, 0));
            }
        }
        best
    }

    /// Moves the events of `slots[slot]` at `lvl` that lie within one slot
    /// width of the cursor into lower levels. The cursor must already sit
    /// at the slot's minimum timestamp, so each moved event descends at
    /// least one level (the earliest lands in level 0). Events one full
    /// rotation ahead stay put. A drained slot releases its buffer, so a
    /// burst of long timers does not pin its peak footprint in every slot
    /// it passed through.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let width = 1u64 << (SLOT_BITS * lvl as u32);
        let now = tick(self.now);
        // Moved events always land at a strictly lower level, so `insert`
        // never touches the Vec being partitioned.
        let mut events = std::mem::take(&mut self.levels[lvl].slots[slot].events);
        let mut min_keep = Time::MAX;
        let mut i = 0;
        while i < events.len() {
            if tick(events[i].at) - now < width {
                let ev = events.swap_remove(i);
                self.insert(ev);
            } else {
                min_keep = min_keep.min(events[i].at);
                i += 1;
            }
        }
        let level = &mut self.levels[lvl];
        if events.is_empty() {
            level.occupied &= !(1 << slot);
        } else {
            level.slots[slot].min_at = min_keep;
            level.slots[slot].events = events;
        }
        self.higher = None;
    }

    /// Pulls overflow events that now fall within the wheel horizon. The
    /// cursor must already sit at the overflow minimum.
    fn cascade_overflow(&mut self) {
        let now = tick(self.now);
        while let Some(top) = self.overflow.peek() {
            if tick(top.at) - now >= HORIZON {
                break;
            }
            let ev = self.overflow.pop().expect("peeked entry vanished");
            self.insert(ev);
        }
        self.higher = None;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the event list is empty (simulation complete).
    pub fn pop(&mut self) -> Option<(Time, NodeId, M)> {
        self.pop_until(Time::MAX)
    }

    /// Pops the next event if it is due at or before `deadline`, advancing
    /// the clock to its timestamp.
    ///
    /// Returns `None` when no event is due by `deadline`; the event list
    /// and the clock are then left exactly as they were.
    pub fn pop_until(&mut self, deadline: Time) -> Option<(Time, NodeId, M)> {
        if self.pending == 0 {
            return None;
        }
        loop {
            let s0 = self.level0_slot();
            let t0 = s0.map(|s| {
                let slot = &mut self.levels[0].slots[s];
                if !slot.sorted {
                    slot.events
                        .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                    slot.sorted = true;
                }
                slot.events.last().expect("occupied slot was empty").at
            });
            let higher = match self.higher {
                Some(h) => h,
                None => {
                    let h = self.earliest_higher();
                    self.higher = Some(h);
                    h
                }
            };
            // Cascade any higher source that could hold an event at or
            // before the level-0 minimum: a same-timestamp event living at
            // a higher level may carry a smaller seq and must be delivered
            // first for stable FIFO.
            if let Some((m, lvl, slot)) = higher {
                if t0.is_none_or(|t| m <= t) {
                    if m > deadline {
                        return None;
                    }
                    // `m` is the global minimum pending timestamp, so the
                    // cursor may advance to it; every moved event then has
                    // delay < the source level's slot width and descends.
                    debug_assert!(m >= self.now);
                    self.now = m;
                    if lvl == LEVELS {
                        self.cascade_overflow();
                    } else {
                        self.cascade(lvl, slot);
                    }
                    continue;
                }
            }
            let s = s0.expect("pending > 0 but no event found");
            if t0.is_some_and(|t| t > deadline) {
                return None;
            }
            let level = &mut self.levels[0];
            let ev = level.slots[s]
                .events
                .pop()
                .expect("occupied slot was empty");
            if level.slots[s].events.is_empty() {
                level.slots[s].sorted = false;
                level.occupied &= !(1 << s);
            }
            assert!(ev.at >= self.now, "event list ordering violated");
            self.now = ev.at;
            self.delivered += 1;
            self.pending -= 1;
            return Some((ev.at, ev.dest, ev.msg));
        }
    }

    /// The timestamp of the next pending event, if any.
    ///
    /// Exact and read-only: it neither cascades nor moves the clock.
    pub fn peek_time(&self) -> Option<Time> {
        if self.pending == 0 {
            return None;
        }
        let t0 = self
            .level0_slot()
            .and_then(|s| self.levels[0].slots[s].events.iter().map(|e| e.at).min());
        let higher = self
            .higher
            .unwrap_or_else(|| self.earliest_higher())
            .map(|(m, _, _)| m);
        match (t0, higher) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl<M> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("delivered", &self.delivered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dur;

    #[test]
    fn events_pop_in_time_order() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(30), 0, "c");
        e.schedule(Time::from_nanos(10), 0, "a");
        e.schedule(Time::from_nanos(20), 0, "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule(Time::from_nanos(5), 0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(Dur::micros(5), 1, ());
        assert_eq!(e.now(), Time::ZERO);
        e.pop().unwrap();
        assert_eq!(e.now(), Time::from_nanos(5_000));
        assert!(e.pop().is_none());
        // Clock stays put once drained.
        assert_eq!(e.now(), Time::from_nanos(5_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(Time::from_nanos(100), 0, ());
        e.pop().unwrap();
        e.schedule(Time::from_nanos(50), 0, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(Time::from_nanos(42), 0, ());
        assert_eq!(e.peek_time(), Some(Time::from_nanos(42)));
        assert_eq!(e.now(), Time::ZERO);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn delivered_counter_counts() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..10u8 {
            e.schedule(Time::from_nanos(u64::from(i)), 2, i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.delivered(), 10);
    }

    #[test]
    fn same_time_events_at_different_wheel_levels_stay_fifo() {
        // A is scheduled far ahead (lands at level 1); B is scheduled later
        // (larger seq) for the same instant, and C from a nearer now
        // (level 0). Delivery must still be A, B, C.
        let us = |n: u64| Time::from_nanos(n * 1_000);
        let mut e: Engine<&str> = Engine::new();
        e.schedule(us(1), 0, "tick");
        e.schedule(us(100), 0, "a"); // 390 ticks -> level 1
        let _ = e.pop(); // now = 1 us
        e.schedule(us(100), 0, "b"); // 386 ticks -> level 1
        e.schedule(us(90), 0, "near"); // 347 ticks -> level 1
        let _ = e.pop(); // now = 90 us
        e.schedule(us(100), 0, "c"); // 39 ticks -> level 0
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn one_tick_delivers_by_time_then_seq() {
        // Every timestamp below lies in the same 256 ns tick, scheduled
        // out of order and with ties.
        let mut e: Engine<u32> = Engine::new();
        let times = [200u64, 17, 255, 17, 0, 128, 200, 17];
        for (i, &t) in times.iter().enumerate() {
            e.schedule(Time::from_nanos(t), 0, i as u32);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop())
            .map(|(at, _, m)| (at.as_nanos(), m))
            .collect();
        let mut expect: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        expect.sort();
        assert_eq!(order, expect);
    }

    #[test]
    fn cascade_lands_in_the_active_sorted_slot() {
        // Tick 390 spans [99_840, 100_096) ns. "a" waits in level 1 while
        // "b1" activates (sorts) the tick's level-0 slot; the cascade then
        // binary-inserts "a" between the slot's remaining events.
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(100_000), 0, "a"); // level 1
        e.schedule(Time::from_nanos(98_000), 0, "tick");
        assert_eq!(e.pop().map(|(_, _, m)| m), Some("tick"));
        e.schedule(Time::from_nanos(100_050), 0, "b2"); // level 0
        e.schedule(Time::from_nanos(99_900), 0, "b1"); // level 0
        e.schedule(Time::from_nanos(100_000), 0, "c"); // level 0, after "a"
        assert_eq!(e.pop().map(|(_, _, m)| m), Some("b1"));
        let s = slot_for(390, 0);
        assert!(e.levels[0].slots[s].sorted);
        assert_eq!(e.levels[1].occupied.count_ones(), 1);
        let rest: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(rest, vec!["a", "c", "b2"]);
        assert!(!e.levels[0].slots[s].sorted);
    }

    #[test]
    fn pop_until_stops_before_deadline_without_moving_the_clock() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(10), 0, "near");
        e.schedule(Time::from_nanos(5_000_000), 0, "timer"); // level 2
        assert_eq!(e.pop_until(Time::from_nanos(9)), None);
        assert_eq!(e.now(), Time::ZERO);
        assert_eq!(
            e.pop_until(Time::from_nanos(10)).map(|(_, _, m)| m),
            Some("near")
        );
        assert_eq!(e.pop_until(Time::from_nanos(4_999_999)), None);
        assert_eq!(e.now(), Time::from_nanos(10));
        assert_eq!(e.pending(), 1);
        assert_eq!(e.pop().map(|(_, _, m)| m), Some("timer"));
    }

    #[test]
    fn drained_upper_slot_releases_its_buffer() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule(Time::from_nanos(5_000_000 + i), 0, i as u32);
        }
        let (lvl, slot) = (2, slot_for(tick(Time::from_nanos(5_000_000)), 2));
        assert_eq!(e.levels[lvl].slots[slot].events.len(), 100);
        e.pop().unwrap();
        assert_eq!(e.levels[lvl].slots[slot].events.capacity(), 0);
        while e.pop().is_some() {}
        assert_eq!(e.delivered(), 100);
        // Each event was placed once in level 2 and once in level 0.
        assert_eq!(e.inserts(), 200);
    }

    #[test]
    fn events_beyond_horizon_use_overflow_and_stay_ordered() {
        let mut e: Engine<u32> = Engine::new();
        // One event per decade of delay, far past the 2^32 ns horizon.
        let times = [
            1u64,
            100,
            10_000,
            1_000_000,
            (1 << 32) - 1,
            1 << 32,
            1 << 36,
            1 << 40,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            e.schedule(Time::from_nanos(t), 0, i as u32);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop())
            .map(|(at, _, m)| (at.as_nanos(), m))
            .collect();
        let expect: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn clock_never_regresses_across_levels() {
        // Deterministic mixed workload crossing every level boundary and
        // the overflow horizon; pop() asserts `at >= now` internally, and
        // we additionally check monotone non-decreasing delivery here.
        let mut e: Engine<u64> = Engine::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = || {
            // xorshift64* — deterministic, no external RNG needed.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut scheduled = 0u64;
        let mut last = Time::ZERO;
        for round in 0..2_000 {
            let r = next();
            // Spread delays across level 0..3 and overflow.
            let delay = match round % 5 {
                0 => r % 16_384,
                1 => 16_384 + r % 1_000_000,
                2 => 1_048_576 + r % 66_000_000,
                3 => 67_108_864 + r % 4_000_000_000,
                _ => (1 << 32) + r % (1 << 36),
            };
            e.schedule_in(Dur::nanos(delay), 0, scheduled);
            scheduled += 1;
            if r % 3 == 0 {
                if let Some((at, _, _)) = e.pop() {
                    assert!(at >= last, "delivery went backwards: {at} < {last}");
                    last = at;
                }
            }
        }
        while let Some((at, _, _)) = e.pop() {
            assert!(at >= last, "delivery went backwards: {at} < {last}");
            last = at;
        }
        assert_eq!(e.delivered(), scheduled);
        assert_eq!(e.pending(), 0);
    }
}

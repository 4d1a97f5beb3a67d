//! The simulation scheduler: a hierarchical timing wheel behind the
//! classic `schedule`/`pop` queue API, with cancellable timer handles.
//!
//! Discrete-event simulation at 10 Gbps / 360-host scale produces dense
//! timestamp distributions (packet serialisation is sub-microsecond)
//! plus a long tail of far-future timers (RTOs, chaos faults). A binary
//! heap pays O(log n) per operation, and n is inflated by every stale
//! retransmission timer still waiting to expire. The calendar-queue /
//! timing-wheel family is the textbook fix: O(1) amortized insert and
//! pop for near-term events, an overflow tier for the far future, and
//! lazy deletion so rescheduled timers stop churning the structure.
//!
//! # Layout
//!
//! Time is bucketed at 256 ns granularity ([`GRAN_BITS`]): one *tick*
//! is `at.nanos() >> 8`. Four levels of 64 slots each cover, per level,
//! ~16.4 µs, ~1.05 ms, ~67 ms, and ~4.3 s of ticks ahead of the cursor;
//! anything further out (or crossing the top-level page boundary) waits
//! in a min-heap overflow tier until the cursor gets close enough to
//! place it precisely. Expiring a higher-level slot *cascades*: its
//! entries re-place into strictly lower levels, so each entry moves at
//! most [`LEVELS`] times over its lifetime.
//!
//! # Determinism
//!
//! Every entry carries a global insertion sequence number and the wheel
//! pops in exact `(time, seq)` order: level-0 buckets hold a single
//! tick and are sorted on drain, ticks are visited in order, and the
//! cursor cascades coarser buckets *before* draining a same-start
//! level-0 bucket so co-scheduled entries always merge first. Entries
//! pushed onto the tick being drained go to a small `late` heap beside
//! the sorted bucket, and each pop takes the smaller head of the two.
//! The pop sequence is therefore identical to the reference heap's —
//! which is what the byte-identical artifact equivalence tests assert.
//!
//! # Cancellation
//!
//! [`EventQueue::schedule_cancellable`] returns a generation-checked
//! [`TimerHandle`]; [`EventQueue::cancel`] marks the entry dead in a
//! slab and the queue discards it lazily on pop, for O(1) cancellation
//! without disturbing bucket order. Both backends share the slab, so a
//! cancelled timer is invisible under either scheduler.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::Event;
use crate::units::Time;

/// Log2 of the tick granularity in nanoseconds (256 ns per tick).
pub const GRAN_BITS: u32 = 8;
/// Log2 of the slot count per wheel level.
pub const LEVEL_BITS: u32 = 6;
/// Number of wheel levels before the overflow tier takes over.
pub const LEVELS: usize = 4;

const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Ticks spanned by the whole wheel; beyond this, entries overflow.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Which scheduler backend a simulation drives its event loop with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel: O(1) amortized schedule/pop.
    #[default]
    Wheel,
    /// The pre-refactor global binary heap: O(log n) schedule/pop.
    /// Kept as the reference implementation for equivalence tests and
    /// as the baseline in the scale benchmarks.
    RefHeap,
}

/// A cancellable-timer handle returned by
/// [`EventQueue::schedule_cancellable`]. Generation-checked: a handle
/// goes stale once its timer fires or is cancelled, and stale handles
/// are rejected by [`EventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Armed,
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    gen: u32,
    state: SlotState,
}

/// An event with its activation time, tie-breaking sequence number,
/// and (for cancellable timers) slab handle.
#[derive(Debug, Clone)]
struct Entry {
    at: Time,
    seq: u64,
    event: Event,
    handle: Option<TimerHandle>,
}

impl Entry {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Min-order wrapper for [`BinaryHeap`] (which is a max-heap).
#[derive(Debug)]
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the earliest (time, seq) pops first; ties break
        // by insertion order for determinism.
        other.0.key().cmp(&self.0.key())
    }
}

/// The hierarchical timing wheel.
#[derive(Debug)]
struct Wheel {
    /// Tick of the most recent pop; buckets behind it are empty.
    now_tick: u64,
    /// The level-0 bucket being drained, sorted *descending* by
    /// `(at, seq)` so pops come off the cheap end.
    current: Vec<Entry>,
    /// Entries that arrived at (or before) `now_tick` after its bucket
    /// was drained: same-tick pushes and overflow page-mates landing on
    /// the cursor. Together with `current` it forms the live run.
    late: BinaryHeap<HeapEntry>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` FIFO buckets, level-major.
    buckets: Vec<Vec<Entry>>,
    /// Entries beyond the wheel horizon, min-ordered by `(at, seq)`.
    overflow: BinaryHeap<HeapEntry>,
    /// Live entries across `current`, `late`, `buckets`, and `overflow`.
    len: usize,
    /// Recycled bucket storage for cascades, to avoid re-allocating.
    cascade_buf: Vec<Entry>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            now_tick: 0,
            current: Vec::new(),
            late: BinaryHeap::new(),
            occupied: [0; LEVELS],
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            len: 0,
            cascade_buf: Vec::new(),
        }
    }

    fn push(&mut self, e: Entry) {
        self.len += 1;
        let tick = e.at.nanos() >> GRAN_BITS;
        if tick <= self.now_tick {
            // Lands on (or before) the tick being drained. A sorted
            // insert into `current` would shift O(run) entries per push,
            // and dense fabrics push thousands into one tick, so the
            // entry joins the `late` heap at O(log n) instead.
            self.late.push(HeapEntry(e));
            return;
        }
        self.place_future(e, tick);
    }

    /// Places an entry with `tick > now_tick` into a bucket or the
    /// overflow tier.
    fn place_future(&mut self, e: Entry, tick: u64) {
        let x = tick ^ self.now_tick;
        debug_assert!(x != 0);
        let level = ((63 - x.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(HeapEntry(e));
            return;
        }
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        self.buckets[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Re-places an entry during a cascade, when the live run is empty.
    /// Same-tick entries go to the level-0 bucket under the cursor so
    /// they drain (and sort) together with any bucket-mates instead of
    /// bypassing them.
    fn place_internal(&mut self, e: Entry) {
        let tick = e.at.nanos() >> GRAN_BITS;
        debug_assert!(tick >= self.now_tick);
        if tick == self.now_tick {
            let slot = (tick & SLOT_MASK) as usize;
            self.buckets[slot].push(e);
            self.occupied[0] |= 1 << slot;
            return;
        }
        self.place_future(e, tick);
    }

    /// First occupied slot at `level` at or after the cursor, with the
    /// absolute start tick of the range it covers. Slots behind the
    /// cursor are empty by construction (they were drained before the
    /// cursor passed them), so one masked scan per level suffices.
    fn candidate(&self, level: usize) -> Option<(usize, u64)> {
        let shift = level as u32 * LEVEL_BITS;
        let cur = (self.now_tick >> shift) & SLOT_MASK;
        debug_assert_eq!(
            self.occupied[level] & !(!0u64 << cur),
            0,
            "occupied slot behind the cursor at level {level}"
        );
        let occ = self.occupied[level] & (!0u64 << cur);
        if occ == 0 {
            return None;
        }
        let slot = occ.trailing_zeros() as u64;
        let base = (self.now_tick >> shift) & !SLOT_MASK;
        Some(((slot as usize), (base | slot) << shift))
    }

    /// Pops the smaller `(at, seq)` head of the live run's two halves.
    fn pop_live(&mut self) -> Option<Entry> {
        let late_first = match (self.current.last(), self.late.peek()) {
            (Some(c), Some(l)) => l.0.key() < c.key(),
            (c, _) => c.is_none(),
        };
        if late_first {
            self.late.pop().map(|h| h.0)
        } else {
            self.current.pop()
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        loop {
            if let Some(e) = self.pop_live() {
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            // The live run is empty, so every remaining entry sits at a
            // later tick. Pick the earliest bucket. Scanning
            // coarse-to-fine with a strict `<` makes ties prefer the
            // coarser level, so a same-start cascade merges into level 0
            // before the drain.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in (0..LEVELS).rev() {
                if let Some((slot, start)) = self.candidate(level) {
                    if best.map_or(true, |(bs, _, _)| start < bs) {
                        best = Some((start, level, slot));
                    }
                }
            }
            let Some((start, level, slot)) = best else {
                // Wheel empty: the overflow minimum is the global
                // minimum, so return it directly instead of routing it
                // through a bucket it would leave on the very next
                // iteration. The cursor jumps to its tick and the
                // remaining overflow entries sharing the new top-level
                // page migrate into the wheel: an entry at exactly the
                // wheel horizon lands in a bucket here rather than
                // ping-ponging through the heap on later pops.
                // Same-tick page-mates join `late` (as `push` would) so
                // a subsequent push at this tick cannot jump ahead of
                // them.
                let e = self
                    .overflow
                    .pop()
                    .expect("non-empty scheduler has a candidate")
                    .0;
                let oft = e.at.nanos() >> GRAN_BITS;
                debug_assert!(oft >= self.now_tick);
                self.now_tick = oft;
                while let Some(h) = self.overflow.peek() {
                    let t = h.0.at.nanos() >> GRAN_BITS;
                    if (t ^ self.now_tick) >> HORIZON_BITS != 0 {
                        break;
                    }
                    let m = self.overflow.pop().expect("peeked");
                    if t == self.now_tick {
                        self.late.push(m);
                    } else {
                        self.place_future(m.0, t);
                    }
                }
                self.len -= 1;
                return Some(e);
            };
            debug_assert!(start >= self.now_tick);
            self.now_tick = start;
            let idx = level * SLOTS + slot;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Swap keeps the drained bucket's allocation for reuse.
                std::mem::swap(&mut self.buckets[idx], &mut self.current);
                self.current
                    .sort_unstable_by(|a, b| b.key().cmp(&a.key()));
                continue;
            }
            // Cascade: entries re-place at strictly lower levels.
            let mut tmp = std::mem::take(&mut self.cascade_buf);
            std::mem::swap(&mut tmp, &mut self.buckets[idx]);
            for e in tmp.drain(..) {
                self.place_internal(e);
            }
            self.cascade_buf = tmp;
        }
    }

    fn peek_key(&self) -> Option<(Time, u64)> {
        let mut best = self.current.last().map(Entry::key);
        if let Some(h) = self.late.peek() {
            if best.is_none_or(|b| h.0.key() < b) {
                best = Some(h.0.key());
            }
        }
        for level in 0..LEVELS {
            if let Some((slot, _)) = self.candidate(level) {
                for e in &self.buckets[level * SLOTS + slot] {
                    if best.map_or(true, |b| e.key() < b) {
                        best = Some(e.key());
                    }
                }
            }
        }
        if let Some(h) = self.overflow.peek() {
            if best.map_or(true, |b| h.0.key() < b) {
                best = Some(h.0.key());
            }
        }
        best
    }
}

#[derive(Debug)]
enum Backend {
    Wheel(Wheel),
    Heap(BinaryHeap<HeapEntry>),
}

impl Backend {
    fn push(&mut self, e: Entry) {
        match self {
            Backend::Wheel(w) => w.push(e),
            Backend::Heap(h) => h.push(HeapEntry(e)),
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        match self {
            Backend::Wheel(w) => w.pop(),
            Backend::Heap(h) => h.pop().map(|e| e.0),
        }
    }

    fn peek_key(&self) -> Option<(Time, u64)> {
        match self {
            Backend::Wheel(w) => w.peek_key(),
            Backend::Heap(h) => h.peek().map(|e| e.0.key()),
        }
    }
}

/// A deterministic min-queue of timestamped events.
///
/// Events popped at equal timestamps come out in insertion order, which
/// makes every simulation run bit-reproducible for a given seed — under
/// either backend, since both respect the same `(time, seq)` total
/// order.
///
/// # Examples
///
/// ```
/// use tfc_simnet::event::{Event, EventQueue};
/// use tfc_simnet::units::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time(20), Event::AppTimer { token: 2 });
/// q.schedule(Time(10), Event::AppTimer { token: 1 });
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, Time(10));
/// matches!(ev, Event::AppTimer { token: 1 });
/// ```
///
/// Cancellable timers are discarded lazily:
///
/// ```
/// use tfc_simnet::event::{Event, EventQueue};
/// use tfc_simnet::units::Time;
///
/// let mut q = EventQueue::new();
/// let h = q.schedule_cancellable(Time(10), Event::AppTimer { token: 1 });
/// q.schedule(Time(20), Event::AppTimer { token: 2 });
/// assert!(q.cancel(h));
/// assert!(!q.cancel(h)); // stale handle
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, Time(20));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    kind: SchedulerKind,
    next_seq: u64,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    live: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue on the default (timing-wheel) backend.
    pub fn new() -> Self {
        Self::with_kind(SchedulerKind::default())
    }

    /// Creates an empty queue on the given backend.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Wheel => Backend::Wheel(Wheel::new()),
            SchedulerKind::RefHeap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            kind,
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        self.push(at, event, None);
    }

    /// Schedules `event` at `at` and returns a handle that can cancel
    /// it before it fires.
    pub fn schedule_cancellable(&mut self, at: Time, event: Event) -> TimerHandle {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(TimerSlot {
                    gen: 0,
                    state: SlotState::Free,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(s.state, SlotState::Free);
        s.state = SlotState::Armed;
        let handle = TimerHandle { slot, gen: s.gen };
        self.push(at, event, Some(handle));
        handle
    }

    /// Cancels a pending cancellable event. Returns `false` for stale
    /// handles (already fired, or already cancelled). The entry is
    /// discarded lazily when the queue reaches it.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(s) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        if s.gen != handle.gen || s.state != SlotState::Armed {
            return false;
        }
        s.state = SlotState::Cancelled;
        self.live -= 1;
        true
    }

    fn push(&mut self, at: Time, event: Event, handle: Option<TimerHandle>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.backend.push(Entry {
            at,
            seq,
            event,
            handle,
        });
    }

    /// Pops the earliest live event, or `None` when empty. Cancelled
    /// entries are reaped (their handle slots recycled) transparently.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        loop {
            let e = self.backend.pop()?;
            if let Some(h) = e.handle {
                let s = &mut self.slots[h.slot as usize];
                debug_assert_eq!(s.gen, h.gen);
                let cancelled = s.state == SlotState::Cancelled;
                s.state = SlotState::Free;
                s.gen = s.gen.wrapping_add(1);
                self.free.push(h.slot);
                if cancelled {
                    continue;
                }
            }
            self.live -= 1;
            return Some((e.at, e.event));
        }
    }

    /// Time of the earliest pending entry. Lazy deletion means a
    /// cancelled-but-unreaped entry may be reported here; `pop` never
    /// returns it.
    pub fn peek_time(&self) -> Option<Time> {
        self.backend.peek_key().map(|(t, _)| t)
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::{cases, vec_u64};
    use rng::Rng;

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::RefHeap];

    fn token_of(ev: &Event) -> u64 {
        match ev {
            Event::AppTimer { token } => *token,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(Time(30), Event::AppTimer { token: 3 });
            q.schedule(Time(10), Event::AppTimer { token: 1 });
            q.schedule(Time(20), Event::AppTimer { token: 2 });
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| token_of(&e))
                .collect();
            assert_eq!(order, vec![1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.schedule(Time(5), Event::AppTimer { token: i });
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| token_of(&e))
                .collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn peek_matches_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.schedule(Time(7), Event::AppTimer { token: 0 });
            assert_eq!(q.peek_time(), Some(Time(7)), "{kind:?}");
            assert_eq!(q.len(), 1);
            q.pop();
            assert!(q.is_empty());
        }
    }

    #[test]
    fn total_order_is_respected() {
        cases(128, |_case, rng| {
            let times = vec_u64(rng, 1..200, 0..1_000);
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Time(t), Event::AppTimer { token: i as u64 });
                }
                let mut last = Time(0);
                let mut popped = 0;
                while let Some((t, _)) = q.pop() {
                    assert!(t >= last, "popped {t:?} after {last:?} for {times:?}");
                    last = t;
                    popped += 1;
                }
                assert_eq!(popped, times.len());
            }
        });
    }

    #[test]
    fn stable_for_equal_timestamps() {
        cases(128, |_case, rng| {
            let n = rng.gen_range(1..100usize);
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                for i in 0..n {
                    q.schedule(Time(42), Event::AppTimer { token: i as u64 });
                }
                let mut expect = 0u64;
                while let Some((_, ev)) = q.pop() {
                    assert_eq!(token_of(&ev), expect, "{kind:?}, n = {n}");
                    expect += 1;
                }
            }
        });
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // The wheel must honour entries scheduled mid-drain at the tick
        // currently being popped, and entries far past the horizon.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(Time(100), Event::AppTimer { token: 0 });
            q.schedule(Time(100), Event::AppTimer { token: 1 });
            q.schedule(Time(1 << 40), Event::AppTimer { token: 9 });
            let (t, ev) = q.pop().unwrap();
            assert_eq!((t, token_of(&ev)), (Time(100), 0));
            // Same tick as the in-flight drain.
            q.schedule(Time(150), Event::AppTimer { token: 2 });
            // Next tick boundary and a far-future entry.
            q.schedule(Time(256), Event::AppTimer { token: 3 });
            q.schedule(Time(1 << 41), Event::AppTimer { token: 10 });
            let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(t, e)| (t, token_of(&e)))
                .collect();
            assert_eq!(
                order,
                vec![
                    (Time(100), 1),
                    (Time(150), 2),
                    (Time(256), 3),
                    (Time(1 << 40), 9),
                    (Time(1 << 41), 10),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn cancel_discards_before_fire() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let h = q.schedule_cancellable(Time(10), Event::AppTimer { token: 1 });
            q.schedule(Time(20), Event::AppTimer { token: 2 });
            assert_eq!(q.len(), 2);
            assert!(q.cancel(h));
            assert_eq!(q.len(), 1, "{kind:?}");
            let (t, ev) = q.pop().unwrap();
            assert_eq!((t, token_of(&ev)), (Time(20), 2));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn cancel_is_stale_after_fire_and_after_cancel() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let h = q.schedule_cancellable(Time(10), Event::AppTimer { token: 1 });
            assert!(q.pop().is_some());
            assert!(!q.cancel(h), "{kind:?}: handle must go stale on fire");
            let h2 = q.schedule_cancellable(Time(30), Event::AppTimer { token: 3 });
            assert!(!q.cancel(h), "{kind:?}: recycled slot must reject old gen");
            assert!(q.cancel(h2));
            assert!(!q.cancel(h2), "{kind:?}: double cancel");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn wheel_handles_bucket_boundaries_and_time_zero() {
        // One tick is 256 ns; level spans are 2^14, 2^20, 2^26, 2^32 ns.
        let edges = [
            0u64,
            1,
            255,
            256,
            257,
            (1 << 14) - 1,
            1 << 14,
            (1 << 20) - 256,
            1 << 20,
            1 << 26,
            (1 << 32) - 1,
            1 << 32,
            (1 << 40) + 123,
        ];
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            for (i, &t) in edges.iter().enumerate() {
                q.schedule(Time(t), Event::AppTimer { token: i as u64 });
            }
            let mut last = (Time(0), 0u64);
            let mut n = 0;
            while let Some((t, ev)) = q.pop() {
                let cur = (t, token_of(&ev));
                assert!(cur >= last, "{kind:?}: {cur:?} after {last:?}");
                last = cur;
                n += 1;
            }
            assert_eq!(n, edges.len());
        }
    }

    /// A sorted-vec reference model: stable sort by time keeps
    /// insertion order within ties, i.e. the `(time, seq)` contract.
    struct VecModel {
        entries: Vec<(u64, u64)>,
    }

    impl VecModel {
        fn new() -> Self {
            Self { entries: Vec::new() }
        }
        fn schedule(&mut self, at: u64, token: u64) {
            self.entries.push((at, token));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            let best = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|&(i, &(t, _))| (t, i))
                .map(|(i, _)| i)?;
            Some(self.entries.remove(best))
        }
    }

    /// Satellite regression: entries pinned at `horizon - 1`, `horizon`,
    /// and `horizon + 1` ticks ahead of the cursor — the exact seam
    /// between the wheel's top level and the overflow heap — must pop in
    /// model order, for aligned and misaligned cursors alike. Also
    /// exercises the empty-wheel direct-pop path (everything past the
    /// boundary starts in overflow) and in-flight pushes at the tick the
    /// cursor lands on after an overflow jump.
    #[test]
    fn overflow_horizon_boundary_matches_model() {
        // The wheel spans 2^HORIZON_BITS ticks; one tick is 2^GRAN_BITS ns.
        let horizon_ticks = 1u64 << HORIZON_BITS;
        let anchors = [0u64, 1, 12_345, horizon_ticks - 2, horizon_ticks + 77];
        for &anchor in &anchors {
            let mut q = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut model = VecModel::new();
            let mut token = 0u64;
            // Advance the cursor to the (possibly misaligned) anchor.
            if anchor > 0 {
                q.schedule(Time(anchor << GRAN_BITS), Event::AppTimer { token });
                model.schedule(anchor << GRAN_BITS, token);
                token += 1;
            }
            // Pin a pair of entries at each boundary tick (same time
            // twice, so insertion-order ties are checked at the seam),
            // plus sub-tick offsets.
            for delta in [horizon_ticks - 1, horizon_ticks, horizon_ticks + 1] {
                let tick = anchor + delta;
                for off in [0u64, 0, 255] {
                    let at = (tick << GRAN_BITS) | off;
                    q.schedule(Time(at), Event::AppTimer { token });
                    model.schedule(at, token);
                    token += 1;
                }
            }
            // Drain the anchor, then push mid-drain entries at the tick
            // the cursor jumped to (merges into the live run).
            if anchor > 0 {
                let (t, ev) = q.pop().expect("anchor");
                assert_eq!((t.nanos(), token_of(&ev)), model.pop().unwrap());
            }
            let (t, ev) = q.pop().expect("first boundary entry");
            assert_eq!((t.nanos(), token_of(&ev)), model.pop().unwrap());
            let same_tick_at = t.nanos();
            q.schedule(Time(same_tick_at), Event::AppTimer { token });
            model.schedule(same_tick_at, token);
            token += 1;
            let far = (anchor + 3 * horizon_ticks) << GRAN_BITS;
            q.schedule(Time(far), Event::AppTimer { token });
            model.schedule(far, token);
            while let Some((t, ev)) = q.pop() {
                let got = (t.nanos(), token_of(&ev));
                let want = model.pop().unwrap_or_else(|| {
                    panic!("wheel popped {got:?} beyond the model, anchor {anchor}")
                });
                assert_eq!(got, want, "anchor {anchor}");
            }
            assert!(model.pop().is_none(), "model has leftovers, anchor {anchor}");
            assert!(q.is_empty());
        }
    }

    /// Randomized version of the boundary test: schedules cluster around
    /// `cursor + horizon` with interleaved pops.
    #[test]
    fn overflow_boundary_random_workloads_match_model() {
        let horizon_ticks = 1u64 << HORIZON_BITS;
        // Same-tick bursts that met a non-empty `late` heap (holding
        // page-mates migrated onto the cursor tick or earlier pushes).
        let mut late_merges = 0u32;
        cases(64, |_case, rng| {
            let mut q = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut model = VecModel::new();
            let mut now = 0u64;
            let mut token = 0u64;
            let mut schedule = |q: &mut EventQueue, model: &mut VecModel, at: u64| {
                q.schedule(Time(at), Event::AppTimer { token });
                model.schedule(at, token);
                token += 1;
            };
            for _ in 0..200 {
                match rng.gen_range(0u32..4) {
                    0 => {
                        let tick_off = horizon_ticks - 3 + rng.gen_range(0..=6u64);
                        let at = now + (tick_off << GRAN_BITS) + rng.gen_range(0..256u64);
                        schedule(&mut q, &mut model, at);
                    }
                    1 => {
                        // Page-mates: several entries on one tick past
                        // the horizon, migrated together by one pop.
                        let tick = (now >> GRAN_BITS) + horizon_ticks + rng.gen_range(0..=2u64);
                        for _ in 0..rng.gen_range(2..8u32) {
                            let at = (tick << GRAN_BITS) | rng.gen_range(0..256u64);
                            schedule(&mut q, &mut model, at);
                        }
                    }
                    2 => {
                        let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                        assert_eq!(got, model.pop());
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                    _ => {
                        // Dense pushes onto the tick being drained,
                        // before and after the page-mates' sub-tick
                        // offsets.
                        let Backend::Wheel(w) = &q.backend else {
                            unreachable!()
                        };
                        if !w.late.is_empty() {
                            late_merges += 1;
                        }
                        for _ in 0..rng.gen_range(1..16u32) {
                            let at = rng.gen_range(now..=now | 255);
                            schedule(&mut q, &mut model, at);
                        }
                    }
                }
            }
            loop {
                let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                assert_eq!(got, model.pop());
                if got.is_none() {
                    break;
                }
            }
        });
        assert!(
            late_merges > 0,
            "no same-tick push met a non-empty late heap"
        );
    }

    #[test]
    fn wheel_and_heap_agree_on_random_workloads() {
        cases(64, |_case, rng| {
            let mut wheel = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut heap = EventQueue::with_kind(SchedulerKind::RefHeap);
            let mut now = 0u64;
            let mut token = 0u64;
            for _ in 0..300 {
                let r = rng.gen_range(0u32..4);
                if r == 3 {
                    // Dense one-tick burst: on the tick being drained
                    // (every push goes to `late`, interleaving with the
                    // drained bucket) or on a near tick (a dense bucket
                    // that later drains into `current`).
                    let base = now + [0, 256, 1024][rng.gen_range(0..3usize)];
                    for _ in 0..rng.gen_range(1..40u32) {
                        let at = Time(rng.gen_range(base..=base | 255));
                        wheel.schedule(at, Event::AppTimer { token });
                        heap.schedule(at, Event::AppTimer { token });
                        token += 1;
                    }
                } else if r < 2 {
                    // Mix of near ticks, boundary offsets, and far-future.
                    let off = match rng.gen_range(0u32..6) {
                        0 => 0,
                        1 => rng.gen_range(0..256),
                        2 => rng.gen_range(0..1 << 14),
                        3 => rng.gen_range(0..1 << 20),
                        4 => rng.gen_range(0..1 << 26),
                        _ => rng.gen_range(0..1u64 << 41),
                    };
                    let at = Time(now + off);
                    wheel.schedule(at, Event::AppTimer { token });
                    heap.schedule(at, Event::AppTimer { token });
                    token += 1;
                } else {
                    let a = wheel.pop().map(|(t, e)| (t, token_of(&e)));
                    let b = heap.pop().map(|(t, e)| (t, token_of(&e)));
                    assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.nanos();
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let a = wheel.pop().map(|(t, e)| (t, token_of(&e)));
                let b = heap.pop().map(|(t, e)| (t, token_of(&e)));
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        });
    }
}

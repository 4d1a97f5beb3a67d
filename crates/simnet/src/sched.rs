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
//! Entries live in one slab shared by every tier. A bucket is an
//! intrusive singly linked list of slab indices (Varghese & Lauck's
//! hashed wheel), so a cascade relinks `u32`s instead of moving
//! entries, and the slab's high-water mark is the peak number of queued
//! entries rather than the sum of 256 per-bucket high-water marks. An
//! entry is 32 bytes (time, sequence number, 16-byte [`Event`]); its
//! bucket link and cancellable-timer slot sit in two parallel `u32`
//! columns, so a queued entry costs 40 bytes of slab. The three columns,
//! like the cancellable-timer slots below, are `Segmented` tables:
//! they grow in segments of 64, 128, 256, … rows that are never
//! reallocated or moved, so reaching the run's peak copies no entry.
//! Only the live run's `current` and `late` vectors still grow by
//! doubling.
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
//! Every key of this live run is on the cursor tick, so it packs the
//! sub-tick offset above a 56-bit sequence number into one `u64` beside
//! the slab index: 16 bytes instead of 24. Popping reaps cancelled
//! entries, which can carry the cursor past the caller's clock, so a
//! push due before the cursor tick waits in a `behind` heap of full
//! keys that pops before everything else. The pop sequence is
//! therefore identical to the reference heap's — which is what the
//! byte-identical artifact equivalence tests assert.
//!
//! Most same-tick pushes are for the very instant just popped: a handler
//! schedules follow-up work with zero delay (a zero-jitter NIC enqueue
//! per emitted packet). Such a push carries a fresh sequence number, so
//! it sorts after every entry queued at that instant before it. It joins
//! a same-instant FIFO threaded through the slab's `next` column, in
//! O(1) and with no vector to grow; a push at that instant that would
//! not sort after the FIFO's tail (an adopted re-arm, pushed with its
//! reserved older sequence number) takes the `late` path instead. Each
//! pop takes the FIFO's head when it sorts before the rest of the live
//! run; everything in buckets or overflow is at a later tick.
//!
//! # Cancellation
//!
//! [`EventQueue::schedule_cancellable`] returns a generation-checked
//! [`TimerHandle`]; [`EventQueue::cancel`] marks the timer dead in a
//! slot table and the queue discards its entry lazily on pop, for O(1)
//! cancellation without disturbing bucket order. Both backends share
//! the slot table, so a cancelled timer is invisible under either
//! scheduler.
//!
//! A cancelled timer whose entry is still queued is a *carrier*. An
//! ACK-clocked sender cancels and re-arms its retransmission timer on
//! every ACK, so without reuse the queue would hold one dead entry per
//! ACK until each reached its (far-future) time. Instead, the next
//! cancellable schedule at or after the carrier's time adopts it: it
//! takes its sequence number now and parks its entry (key and event) in
//! the carrier's slot, and when the carrier's entry pops the parked
//! entry is pushed with that reserved key. Its key is above the
//! carrier's, and everything popped before the carrier is below it, so
//! the pop order stays exactly `(time, seq)` on both backends; a re-arm
//! earlier than the carrier is pushed as usual. A timer re-armed at
//! non-decreasing times thus holds one queued entry however often it is
//! re-armed.
//!
//! Carriers wait on two LIFO stacks, split by how far ahead of the
//! clock their entry is when cancelled (wheel level 2, ~1.05 ms), and a
//! re-arm tries the stack of its own horizon first. With one stack, an
//! owner that moves from far timers (a 200 ms RTO) to near ones
//! (sub-ms probes) leaves its far carrier under a pile of near ones: a
//! near re-arm cannot adopt it and a far re-arm adopts a near carrier
//! instead, so one far carrier per owner stays queued until its time.
//! Which carrier a re-arm adopts never changes its key, so the pop
//! order is the same either way.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::event::Event;
use crate::segmented::Segmented;
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
/// End of an intrusive list (a bucket or the slab's free list).
const NIL: u32 = u32::MAX;
/// Timer column value of an entry that is not a cancellable timer.
const NO_TIMER: u32 = u32::MAX;
/// Bits of a live-run key below the sub-tick offset: the sequence number.
const SEQ_BITS: u32 = 64 - GRAN_BITS;
/// Log2 of the nanoseconds from the clock beyond which a carrier is
/// far (wheel level 2 and up, ~1.05 ms): RTOs, not probes or pacing.
const FAR_BITS: u32 = GRAN_BITS + 2 * LEVEL_BITS;

/// Which scheduler backend a simulation drives its event loop with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel: O(1) amortized schedule/pop.
    #[default]
    Wheel,
    /// The pre-refactor global binary heap: O(log n) schedule/pop.
    /// Kept as the reference implementation for equivalence tests and
    /// as the baseline of perfbench's `sched.refheap_ratio`.
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
    /// No entry of this slot is queued.
    Free,
    /// The timer is live and is the queued entry itself.
    Armed,
    /// The timer is live and is the parked `pending` entry: a re-arm
    /// adopted the cancelled queued entry as its carrier.
    Adopted,
    /// The timer was cancelled but its entry is still queued: a carrier
    /// the next re-arm may adopt.
    Cancelled,
}

#[derive(Debug)]
struct TimerSlot {
    /// Bumped whenever a handle goes stale (fire or cancel).
    gen: u32,
    state: SlotState,
    /// Whether the slot is on the carrier stack (at most once).
    listed: bool,
    /// `(at, seq)` of the queued entry that carries this slot (unless
    /// `Free`).
    queued: (Time, u64),
    /// The adopted re-arm with its reserved key, pushed when the queued
    /// entry pops. Meaningful only while `Adopted`.
    pending: Entry,
}

/// An event with its activation time and tie-breaking sequence number.
/// A cancellable timer's slot travels beside it (the wheel's timer
/// column, the heap's [`HeapEntry`]), not in it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Time,
    seq: u64,
    event: Event,
}

// Pinned: a scheduler entry is half a cache line, and a timer slot
// parks one entry beside its own 24 bytes of state.
const _: () = assert!(std::mem::size_of::<Entry>() == 32);
const _: () = assert!(std::mem::size_of::<TimerSlot>() == 56);

impl Entry {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Min-order wrapper for [`BinaryHeap`] (which is a max-heap), carrying
/// the entry's timer slot ([`NO_TIMER`] for plain events).
#[derive(Debug)]
struct HeapEntry(Entry, u32);

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

/// A slab entry's `(at, seq)` key plus its slab index. Keys are unique,
/// so ordering these triples orders the entries.
type Key = (Time, u64, u32);

/// A live-run entry's key: the sub-tick offset of `at` above its 56-bit
/// `seq`, plus its slab index. Every live-run entry is on the cursor
/// tick, so ordering these pairs orders the entries as [`Key`]s would.
type RunKey = (u64, u32);

/// The hierarchical timing wheel.
#[derive(Debug)]
struct Wheel {
    /// Tick of the most recent pop; buckets behind it are empty.
    now_tick: u64,
    /// Every queued entry; a free slab slot keeps its last entry.
    entries: Segmented<Entry>,
    /// Per slab slot: the next index of its bucket list or, for a free
    /// slot, of the free list.
    next: Segmented<u32>,
    /// Per slab slot: the entry's timer slot, or [`NO_TIMER`].
    timers: Segmented<u32>,
    /// Head of the free list.
    free: u32,
    /// The level-0 bucket being drained, sorted *descending* so pops
    /// come off the cheap end.
    current: Vec<RunKey>,
    /// Entries that arrived at `now_tick` after its bucket was drained:
    /// same-tick pushes and overflow page-mates landing on the cursor.
    /// Together with `current` it forms the live run.
    late: BinaryHeap<Reverse<RunKey>>,
    /// Entries due before `now_tick`. Reaping cancelled entries carries
    /// the cursor past the last event `pop` returned, so a caller's
    /// clock can trail it; such an entry precedes everything else queued.
    behind: BinaryHeap<Reverse<Key>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Head of each bucket's list, level-major.
    heads: Vec<u32>,
    /// Entries beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Time of the entry popped last.
    last_at: Time,
    /// Head of the same-instant FIFO, or [`NIL`]: entries pushed at the
    /// `last_at` of their push, in `(at, seq)` order, linked through
    /// `next`. Its entries are at or before the cursor tick.
    fifo_head: u32,
    /// Last entry of the same-instant FIFO (meaningless when empty).
    fifo_tail: u32,
    /// Live entries across `behind`, the FIFO, `current`, `late`, the
    /// buckets, and `overflow`.
    len: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            now_tick: 0,
            entries: Segmented::new("scheduler entries"),
            next: Segmented::new("scheduler links"),
            timers: Segmented::new("scheduler timer column"),
            free: NIL,
            current: Vec::new(),
            late: BinaryHeap::new(),
            behind: BinaryHeap::new(),
            occupied: [0; LEVELS],
            heads: vec![NIL; LEVELS * SLOTS],
            overflow: BinaryHeap::new(),
            last_at: Time::ZERO,
            fifo_head: NIL,
            fifo_tail: NIL,
            len: 0,
        }
    }

    fn key(&self, idx: u32) -> Key {
        let e = &self.entries[idx];
        (e.at, e.seq, idx)
    }

    /// The live-run key of slab entry `idx`, which is on the cursor tick.
    ///
    /// # Panics
    ///
    /// Panics if the sequence number needs more than 56 bits.
    fn run_key(&self, idx: u32) -> RunKey {
        let e = &self.entries[idx];
        debug_assert_eq!(e.at.nanos() >> GRAN_BITS, self.now_tick);
        assert!(
            e.seq >> SEQ_BITS == 0,
            "scheduler sequence number {} exceeds {SEQ_BITS} bits",
            e.seq
        );
        let offset = e.at.nanos() & ((1 << GRAN_BITS) - 1);
        ((offset << SEQ_BITS) | e.seq, idx)
    }

    /// Copies the entry and its timer slot out of slab slot `idx`, the
    /// entry being popped, and frees the slot.
    fn release(&mut self, idx: u32) -> (Entry, u32) {
        self.next[idx] = self.free;
        self.free = idx;
        self.len -= 1;
        self.last_at = self.entries[idx].at;
        (self.entries[idx], self.timers[idx])
    }

    /// Queues `e` with timer slot `timer` ([`NO_TIMER`] for none).
    fn push(&mut self, e: Entry, timer: u32) {
        self.len += 1;
        let tick = e.at.nanos() >> GRAN_BITS;
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.next[idx];
            self.entries[idx] = e;
            self.timers[idx] = timer;
            idx
        } else {
            self.next.push(NIL);
            self.timers.push(timer);
            self.entries.push(e)
        };
        if e.at == self.last_at
            && (self.fifo_head == NIL || self.key(self.fifo_tail) < (e.at, e.seq, idx))
        {
            // Sorts after the whole FIFO, which is at or before the
            // cursor tick: append it.
            self.next[idx] = NIL;
            if self.fifo_head == NIL {
                self.fifo_head = idx;
            } else {
                self.next[self.fifo_tail] = idx;
            }
            self.fifo_tail = idx;
            return;
        }
        if tick < self.now_tick {
            self.behind.push(Reverse(self.key(idx)));
            return;
        }
        if tick == self.now_tick {
            // Lands on the tick being drained. A sorted insert into
            // `current` would shift O(run) entries per push, and dense
            // fabrics push thousands into one tick, so the entry joins
            // the `late` heap at O(log n) instead.
            self.late.push(Reverse(self.run_key(idx)));
            return;
        }
        self.place_future(idx, tick);
    }

    /// Links slab entry `idx` onto the front of bucket `b`. Order within
    /// a bucket is irrelevant: level 0 sorts on drain and cascades
    /// re-place each entry by its own tick.
    fn link(&mut self, b: usize, idx: u32) {
        self.next[idx] = self.heads[b];
        self.heads[b] = idx;
    }

    /// Places an entry with `tick > now_tick` into a bucket or the
    /// overflow tier.
    fn place_future(&mut self, idx: u32, tick: u64) {
        let x = tick ^ self.now_tick;
        debug_assert!(x != 0);
        let level = ((63 - x.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse(self.key(idx)));
            return;
        }
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        self.link(level * SLOTS + slot, idx);
        self.occupied[level] |= 1 << slot;
    }

    /// Re-places an entry during a cascade, when the live run is empty.
    /// Same-tick entries go to the level-0 bucket under the cursor so
    /// they drain (and sort) together with any bucket-mates instead of
    /// bypassing them.
    fn place_internal(&mut self, idx: u32) {
        let tick = self.key(idx).0.nanos() >> GRAN_BITS;
        debug_assert!(tick >= self.now_tick);
        if tick == self.now_tick {
            let slot = (tick & SLOT_MASK) as usize;
            self.link(slot, idx);
            self.occupied[0] |= 1 << slot;
            return;
        }
        self.place_future(idx, tick);
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

    /// The smallest key behind the cursor, or else the smaller head of
    /// the live run's two halves.
    fn live_min(&self) -> Option<Key> {
        if let Some(&Reverse(k)) = self.behind.peek() {
            return Some(k);
        }
        let current = self.current.last().map(|&(_, idx)| self.key(idx));
        let late = self.late.peek().map(|&Reverse((_, idx))| self.key(idx));
        match (current, late) {
            (Some(c), Some(l)) => Some(c.min(l)),
            (c, l) => c.or(l),
        }
    }

    /// Pops the smallest entry behind the cursor, or else the smaller
    /// head of the live run's two halves.
    fn pop_live(&mut self) -> Option<u32> {
        if let Some(Reverse(k)) = self.behind.pop() {
            return Some(k.2);
        }
        let late_first = match (self.current.last(), self.late.peek()) {
            (Some(c), Some(l)) => l.0 < *c,
            (c, _) => c.is_none(),
        };
        if late_first {
            self.late.pop().map(|Reverse(k)| k.1)
        } else {
            self.current.pop().map(|k| k.1)
        }
    }

    fn pop(&mut self) -> Option<(Entry, u32)> {
        if self.fifo_head != NIL {
            // The FIFO is at or before the cursor tick, so only the live
            // run can hold a smaller entry.
            let head = self.fifo_head;
            let idx = match self.live_min() {
                Some(k) if k < self.key(head) => {
                    self.pop_live().expect("the live run is non-empty")
                }
                _ => {
                    self.fifo_head = self.next[head];
                    head
                }
            };
            return Some(self.release(idx));
        }
        loop {
            if let Some(idx) = self.pop_live() {
                return Some(self.release(idx));
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
                    if best.is_none_or(|(bs, _, _)| start < bs) {
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
                let Reverse((at, _, idx)) = self
                    .overflow
                    .pop()
                    .expect("non-empty scheduler has a candidate");
                let oft = at.nanos() >> GRAN_BITS;
                debug_assert!(oft >= self.now_tick);
                self.now_tick = oft;
                while let Some(&Reverse(k)) = self.overflow.peek() {
                    let t = k.0.nanos() >> GRAN_BITS;
                    if (t ^ self.now_tick) >> HORIZON_BITS != 0 {
                        break;
                    }
                    self.overflow.pop();
                    if t == self.now_tick {
                        self.late.push(Reverse(self.run_key(k.2)));
                    } else {
                        self.place_future(k.2, t);
                    }
                }
                return Some(self.release(idx));
            };
            debug_assert!(start >= self.now_tick);
            self.now_tick = start;
            let b = level * SLOTS + slot;
            self.occupied[level] &= !(1u64 << slot);
            let mut idx = std::mem::replace(&mut self.heads[b], NIL);
            if level == 0 {
                while idx != NIL {
                    self.current.push(self.run_key(idx));
                    idx = self.next[idx];
                }
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                continue;
            }
            // Cascade: entries re-place at strictly lower levels.
            while idx != NIL {
                let next = self.next[idx];
                self.place_internal(idx);
                idx = next;
            }
        }
    }
}

#[derive(Debug)]
enum Backend {
    /// Boxed, so the heap variant is not padded to the ~250 bytes of the
    /// wheel's tier and column headers.
    Wheel(Box<Wheel>),
    Heap(BinaryHeap<HeapEntry>),
}

impl Backend {
    fn push(&mut self, e: Entry, timer: u32) {
        match self {
            Backend::Wheel(w) => w.push(e, timer),
            Backend::Heap(h) => h.push(HeapEntry(e, timer)),
        }
    }

    fn pop(&mut self) -> Option<(Entry, u32)> {
        match self {
            Backend::Wheel(w) => w.pop(),
            Backend::Heap(h) => h.pop().map(|HeapEntry(e, timer)| (e, timer)),
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
/// Cancellable timers are discarded lazily, and a re-arm reuses the
/// cancelled timer's queued entry:
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
/// q.schedule_cancellable(Time(30), Event::AppTimer { token: 3 });
/// assert_eq!(q.queued(), 2); // the re-arm rides the cancelled entry
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, Time(20));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    kind: SchedulerKind,
    next_seq: u64,
    slots: Segmented<TimerSlot>,
    free: Vec<u32>,
    /// Cancelled slots whose entry was near the clock when cancelled,
    /// most recent last: candidate carriers for the next re-arm. An
    /// entry goes stale once its carrier pops; stale entries are
    /// dropped when they reach the top.
    carriers: Vec<u32>,
    /// The same for entries at least `1 << FAR_BITS` ns ahead.
    far_carriers: Vec<u32>,
    /// Time of the event popped last.
    clock: Time,
    live: usize,
    /// Entries held by the backend, live or dead, and their high-water.
    queued: usize,
    peak_queued: usize,
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
            SchedulerKind::Wheel => Backend::Wheel(Box::new(Wheel::new())),
            SchedulerKind::RefHeap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            kind,
            next_seq: 0,
            slots: Segmented::new("timer slots"),
            free: Vec::new(),
            carriers: Vec::new(),
            far_carriers: Vec::new(),
            clock: Time::ZERO,
            live: 0,
            queued: 0,
            peak_queued: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.take_seq();
        self.push(Entry { at, seq, event }, NO_TIMER);
    }

    /// Schedules `event` at `at` and returns a handle that can cancel
    /// it before it fires.
    pub fn schedule_cancellable(&mut self, at: Time, event: Event) -> TimerHandle {
        let seq = self.take_seq();
        let e = Entry { at, seq, event };
        let far = self.is_far(at);
        for far in [far, !far] {
            if let Some(handle) = self.adopt(far, e) {
                return handle;
            }
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => self.slots.push(TimerSlot {
                gen: 0,
                state: SlotState::Free,
                listed: false,
                queued: (Time::ZERO, 0),
                pending: Entry {
                    at: Time::ZERO,
                    seq: 0,
                    event,
                },
            }),
        };
        let s = &mut self.slots[slot];
        debug_assert_eq!(s.state, SlotState::Free);
        s.state = SlotState::Armed;
        s.queued = (at, seq);
        let handle = TimerHandle { slot, gen: s.gen };
        self.push(Entry { at, seq, event }, slot);
        handle
    }

    /// Whether `at` is far enough ahead of the clock for the far stack.
    fn is_far(&self, at: Time) -> bool {
        at.nanos().saturating_sub(self.clock.nanos()) >> FAR_BITS != 0
    }

    /// Parks `e` in the top live carrier of the far or near stack, if
    /// that carrier is queued at or before `e`, and returns its handle.
    fn adopt(&mut self, far: bool, e: Entry) -> Option<TimerHandle> {
        let stack = if far {
            &mut self.far_carriers
        } else {
            &mut self.carriers
        };
        while let Some(&slot) = stack.last() {
            let s = &mut self.slots[slot];
            if s.state != SlotState::Cancelled {
                s.listed = false;
                stack.pop();
                continue;
            }
            // The new key `(at, seq)` sorts after the carrier's (its seq
            // is newer), so parking it until the carrier pops keeps the
            // pop order. An earlier re-arm leaves the carrier in place.
            if e.at < s.queued.0 {
                return None;
            }
            s.listed = false;
            stack.pop();
            s.state = SlotState::Adopted;
            s.pending = e;
            return Some(TimerHandle { slot, gen: s.gen });
        }
        None
    }

    /// Cancels a pending cancellable event. Returns `false` for stale
    /// handles (already fired, or already cancelled). The queued entry
    /// is discarded lazily when the queue reaches it, unless a re-arm
    /// adopts it first.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(s) = self.slots.get_mut(handle.slot) else {
            return false;
        };
        if s.gen != handle.gen || !matches!(s.state, SlotState::Armed | SlotState::Adopted) {
            return false;
        }
        s.state = SlotState::Cancelled;
        s.gen = s.gen.wrapping_add(1);
        if !s.listed {
            s.listed = true;
            let at = s.queued.0;
            if self.is_far(at) {
                self.far_carriers.push(handle.slot);
            } else {
                self.carriers.push(handle.slot);
            }
        }
        self.live -= 1;
        true
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        seq
    }

    fn push(&mut self, e: Entry, timer: u32) {
        self.queued += 1;
        self.peak_queued = self.peak_queued.max(self.queued);
        self.backend.push(e, timer);
    }

    /// Pops the earliest live event, or `None` when empty. Cancelled
    /// entries are reaped (their handle slots recycled) and adopted
    /// re-arms pushed transparently.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        loop {
            let (e, slot) = self.backend.pop()?;
            self.queued -= 1;
            if slot != NO_TIMER {
                let s = &mut self.slots[slot];
                debug_assert_eq!(s.queued, e.key(), "slot carried by another entry");
                if s.state == SlotState::Adopted {
                    s.state = SlotState::Armed;
                    let p = s.pending;
                    s.queued = p.key();
                    self.push(p, slot);
                    continue;
                }
                let fired = s.state == SlotState::Armed;
                if fired {
                    s.gen = s.gen.wrapping_add(1);
                }
                s.state = SlotState::Free;
                self.free.push(slot);
                if !fired {
                    continue;
                }
            }
            self.live -= 1;
            self.clock = e.at;
            return Some((e.at, e.event));
        }
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entries the backend holds right now: live events plus cancelled
    /// entries not yet reaped. An adopted re-arm rides its carrier's
    /// entry and is not counted separately.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// High-water mark of [`queued`](Self::queued) over the queue's
    /// life: the scheduler's share of peak resident memory.
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }
}

/// The pending cancellable timers of one owner (a flow's endpoints, a
/// switch's policy) as `(token, handle)` pairs. An entry leaves when
/// its timer fires or is cancelled; the owner names timers by token.
#[derive(Debug, Default)]
pub(crate) struct Timers(Vec<(u64, TimerHandle)>);

impl Timers {
    /// Schedules `event` at `at` under `token`.
    pub(crate) fn arm(&mut self, events: &mut EventQueue, at: Time, event: Event, token: u64) {
        self.0.push((token, events.schedule_cancellable(at, event)));
    }

    /// Cancels the pending timer under `token`, if there is one.
    pub(crate) fn cancel(&mut self, events: &mut EventQueue, token: u64) {
        if let Some(handle) = self.take(token) {
            events.cancel(handle);
        }
    }

    /// Forgets the timer under `token`: it fired, so its handle is spent.
    pub(crate) fn fired(&mut self, token: u64) {
        self.take(token);
    }

    /// Whether no timer is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn take(&mut self, token: u64) -> Option<TimerHandle> {
        let i = self.0.iter().position(|&(t, _)| t == token)?;
        Some(self.0.swap_remove(i).1)
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
    fn len_counts_pending_events() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(Time(7), Event::AppTimer { token: 0 });
            assert_eq!(q.len(), 1, "{kind:?}");
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

    /// A pop that reaps a cancelled far-future entry moves the wheel's
    /// cursor past the caller's clock; pushes due before the cursor must
    /// still pop first, in `(time, seq)` order, and ahead of entries on
    /// the cursor tick.
    #[test]
    fn pushes_behind_a_reaping_pop_keep_the_total_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let h = q.schedule_cancellable(Time(1 << 20), Event::AppTimer { token: 0 });
            assert!(q.cancel(h));
            assert!(q.pop().is_none(), "{kind:?}: only a cancelled entry");
            q.schedule(Time(1 << 20), Event::AppTimer { token: 1 });
            q.schedule(Time(700), Event::AppTimer { token: 2 });
            q.schedule(Time(300), Event::AppTimer { token: 3 });
            q.schedule(Time(700), Event::AppTimer { token: 4 });
            let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(t, e)| (t, token_of(&e)))
                .collect();
            assert_eq!(
                order,
                vec![
                    (Time(300), 3),
                    (Time(700), 2),
                    (Time(700), 4),
                    (Time(1 << 20), 1)
                ],
                "{kind:?}"
            );
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
            Self {
                entries: Vec::new(),
            }
        }
        fn schedule(&mut self, at: u64, token: u64) {
            self.entries.push((at, token));
        }
        fn cancel(&mut self, token: u64) {
            self.entries.retain(|&(_, t)| t != token);
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
            assert!(
                model.pop().is_none(),
                "model has leftovers, anchor {anchor}"
            );
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

    /// Random schedule / cancellable / cancel / re-arm / pop sequences
    /// against the model, on both backends. Re-arms land later than,
    /// equal to, and earlier than the carrier's queued time, and on the
    /// tick being drained; some chain adopt → cancel → adopt before the
    /// carrier pops. Whenever the re-armed timer's own slot is the top
    /// carrier, adoption must happen exactly when the re-arm is not
    /// earlier than the carrier (earlier falls back to a plain push).
    #[test]
    fn rearm_random_workloads_match_model() {
        // Re-arms that met their own slot as the top carrier, by
        // outcome, and adopt → cancel → adopt chains.
        let (mut adopted, mut pushed, mut chains) = (0u32, 0u32, 0u32);
        cases(64, |_case, rng| {
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                let mut model = VecModel::new();
                let mut timers: Vec<(TimerHandle, u64)> = Vec::new();
                let mut now = 0u64;
                let mut token = 0u64;
                for _ in 0..400 {
                    match rng.gen_range(0u32..6) {
                        r @ (0 | 1) => {
                            let off = match rng.gen_range(0u32..5) {
                                0 => rng.gen_range(0..256),
                                1 => rng.gen_range(0..1 << 14),
                                2 => rng.gen_range(0..1 << 20),
                                3 => rng.gen_range(0..1 << 26),
                                _ => rng.gen_range(0..1u64 << 41),
                            };
                            let ev = Event::AppTimer { token };
                            if r == 0 {
                                q.schedule(Time(now + off), ev);
                            } else {
                                timers.push((q.schedule_cancellable(Time(now + off), ev), token));
                            }
                            model.schedule(now + off, token);
                            token += 1;
                        }
                        2 if !timers.is_empty() => {
                            let (h, tok) = timers.swap_remove(rng.gen_range(0..timers.len()));
                            assert!(q.cancel(h), "{kind:?}: live handle");
                            assert!(!q.cancel(h), "{kind:?}: cancelled handle is stale");
                            model.cancel(tok);
                        }
                        3 | 4 if !timers.is_empty() => {
                            let i = rng.gen_range(0..timers.len());
                            for link in 0..rng.gen_range(1..4u32) {
                                let (h, tok) = timers[i];
                                let carrier_at = q.slots[h.slot].queued.0.nanos();
                                assert!(q.cancel(h));
                                model.cancel(tok);
                                let own_top = q.carriers.last() == Some(&h.slot);
                                let at = match rng.gen_range(0u32..4) {
                                    0 => carrier_at + rng.gen_range(1..1u64 << 22),
                                    1 => carrier_at,
                                    2 => rng.gen_range(now..=carrier_at),
                                    // Onto the tick being drained.
                                    _ => rng.gen_range(now..=now | 255),
                                };
                                let before = q.queued();
                                let h2 =
                                    q.schedule_cancellable(Time(at), Event::AppTimer { token });
                                model.schedule(at, token);
                                let adopt = q.queued() == before;
                                if own_top {
                                    assert_eq!(
                                        adopt,
                                        at >= carrier_at,
                                        "{kind:?}: at {at} vs carrier {carrier_at}"
                                    );
                                    if adopt {
                                        adopted += 1;
                                    } else {
                                        pushed += 1;
                                    }
                                }
                                if adopt && link > 0 {
                                    chains += 1;
                                }
                                timers[i] = (h2, token);
                                token += 1;
                            }
                        }
                        _ => {
                            let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                            assert_eq!(got, model.pop(), "{kind:?}");
                            if let Some((t, tok)) = got {
                                now = t;
                                timers.retain(|&(_, x)| x != tok);
                            }
                        }
                    }
                    assert_eq!(q.len(), model.entries.len(), "{kind:?}");
                }
                loop {
                    let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                    assert_eq!(got, model.pop(), "{kind:?}");
                    if got.is_none() {
                        break;
                    }
                }
                assert_eq!(q.queued(), 0, "{kind:?}: dead entries left behind");
            }
        });
        assert!(
            adopted > 0 && pushed > 0 && chains > 0,
            "{adopted} {pushed} {chains}"
        );
    }

    /// Same-instant pushes against the model, on both backends, mixed
    /// with the two cases that keep a push at that instant out of the
    /// wheel's FIFO: an adopted re-arm pushed with its reserved older
    /// sequence number when its carrier pops, and a pop that reaps a
    /// cancelled later entry, carrying the cursor (and the last popped
    /// time) past the caller's clock so pushes at the clock go behind
    /// it. Counts that every path was taken on the wheel.
    #[test]
    fn same_instant_pushes_match_model() {
        // Operations that appended to the FIFO, grew `late` or `behind`,
        // and re-arms that were adopted.
        let (mut fifo, mut late, mut behind, mut adopted) = (0u32, 0u32, 0u32, 0u32);
        // The wheel's FIFO, `late` and `behind` lengths.
        let tiers = |q: &EventQueue| match &q.backend {
            Backend::Wheel(w) => {
                let mut n = 0;
                let mut idx = w.fifo_head;
                while idx != NIL {
                    n += 1;
                    idx = w.next[idx];
                }
                (n, w.late.len(), w.behind.len())
            }
            Backend::Heap(_) => (0, 0, 0),
        };
        cases(64, |_case, rng| {
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                let mut model = VecModel::new();
                let mut timers: Vec<(TimerHandle, u64)> = Vec::new();
                let mut now = 0u64;
                let mut token = 0u64;
                for _ in 0..400 {
                    let before = tiers(&q);
                    match rng.gen_range(0u32..8) {
                        r @ (0..=2) => {
                            // At the instant just popped, or a little later.
                            let at = if r < 2 {
                                now
                            } else {
                                now + rng.gen_range(0..512u64)
                            };
                            let ev = Event::AppTimer { token };
                            if r == 1 {
                                timers.push((q.schedule_cancellable(Time(at), ev), token));
                            } else {
                                q.schedule(Time(at), ev);
                            }
                            model.schedule(at, token);
                            token += 1;
                        }
                        3 if !timers.is_empty() => {
                            // Re-arm at this instant or at the carrier's
                            // time: adopted whenever not earlier.
                            let i = rng.gen_range(0..timers.len());
                            let (h, tok) = timers[i];
                            let carrier_at = q.slots[h.slot].queued.0.nanos();
                            assert!(q.cancel(h));
                            model.cancel(tok);
                            let at = if rng.gen_range(0..2u32) == 0 {
                                now
                            } else {
                                carrier_at.max(now)
                            };
                            let queued = q.queued();
                            let h2 = q.schedule_cancellable(Time(at), Event::AppTimer { token });
                            if kind == SchedulerKind::Wheel && q.queued() == queued {
                                adopted += 1;
                            }
                            model.schedule(at, token);
                            timers[i] = (h2, token);
                            token += 1;
                        }
                        4 => {
                            // A later timer cancelled at once: a dead
                            // entry that a pop reaps past the clock.
                            let at = now + rng.gen_range(1..1u64 << 16);
                            let h = q.schedule_cancellable(Time(at), Event::AppTimer { token });
                            assert!(q.cancel(h));
                            token += 1;
                        }
                        _ => {
                            let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                            assert_eq!(got, model.pop(), "{kind:?}");
                            if let Some((t, tok)) = got {
                                now = t;
                                timers.retain(|&(_, x)| x != tok);
                            }
                        }
                    }
                    let after = tiers(&q);
                    fifo += u32::from(after.0 > before.0);
                    late += u32::from(after.1 > before.1);
                    behind += u32::from(after.2 > before.2);
                    assert_eq!(q.len(), model.entries.len(), "{kind:?}");
                }
                loop {
                    let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                    assert_eq!(got, model.pop(), "{kind:?}");
                    if got.is_none() {
                        break;
                    }
                }
                assert_eq!(q.queued(), 0, "{kind:?}: dead entries left behind");
            }
        });
        assert!(
            fifo > 0 && late > 0 && behind > 0 && adopted > 0,
            "fifo {fifo} late {late} behind {behind} adopted {adopted}"
        );
    }

    /// An ACK-clocked sender's pattern, 100k times: one packet event
    /// popped, then the RTO cancelled and re-armed. The re-arms ride the
    /// first timer's queued entry until it pops and hand over from there,
    /// so the queue never holds more than the packet and one timer entry.
    #[test]
    fn rearm_cycles_keep_queued_entries_bounded() {
        const RTO: u64 = 200_000_000;
        const ACKS: u64 = 100_000;
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut rto = q.schedule_cancellable(Time(RTO), Event::AppTimer { token: 0 });
            let mut now = 0u64;
            for i in 1..=ACKS {
                // 3 µs per ACK: the first carrier pops about 2/3 through.
                q.schedule(Time(now + 3_000), Event::AppTimer { token: u64::MAX });
                let (t, ev) = q.pop().expect("packet event");
                assert_eq!(token_of(&ev), u64::MAX, "{kind:?}: a cancelled RTO fired");
                now = t.nanos();
                assert!(q.cancel(rto));
                rto = q.schedule_cancellable(Time(now + RTO), Event::AppTimer { token: i });
                assert!(
                    q.queued() <= 2,
                    "{kind:?}: {} queued after ACK {i}",
                    q.queued()
                );
            }
            assert!(q.peak_queued() <= 2, "{kind:?}: peak {}", q.peak_queued());
            let (t, ev) = q.pop().expect("last RTO");
            assert_eq!((t.nanos(), token_of(&ev)), (now + RTO, ACKS), "{kind:?}");
            assert!(q.pop().is_none());
            assert_eq!(q.queued(), 0);
        }
    }

    /// Owners that live like TFC flows, each life a far timer (the
    /// 200 ms SYN RTO) re-armed once far (the window acquisition), then
    /// re-armed at sub-ms probe deadlines on every ACK and cancelled at
    /// the end. Lives are staggered, so at every step some owners arm
    /// far while others re-arm near. With one carrier stack, each life
    /// leaves its far carrier buried under near ones until its 200 ms
    /// pass: a queue of one entry per life, not per owner (one stack
    /// peaked at 1,441 entries here; split stacks at 27).
    #[test]
    fn mixed_horizon_rearms_keep_queued_entries_per_owner() {
        const OWNERS: usize = 16;
        const LIFE: usize = 20;
        const STEPS: usize = 8_000;
        const STEP: u64 = 50_000;
        const FAR: u64 = 200_000_000;
        const PTO: u64 = 300_000;
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut timers: Vec<Option<TimerHandle>> = vec![None; OWNERS];
            let mut now = 0u64;
            for step in 0..STEPS {
                for (owner, timer) in timers.iter_mut().enumerate() {
                    if let Some(h) = timer.take() {
                        assert!(q.cancel(h), "{kind:?}: a live timer");
                    }
                    let at = match (step + owner) % LIFE {
                        0 | 1 => now + FAR,
                        p if p < LIFE - 1 => now + PTO,
                        _ => continue,
                    };
                    let token = owner as u64;
                    *timer = Some(q.schedule_cancellable(Time(at), Event::AppTimer { token }));
                }
                q.schedule(Time(now + STEP), Event::AppTimer { token: u64::MAX });
                let (t, ev) = q.pop().expect("the step's event");
                assert_eq!(token_of(&ev), u64::MAX, "{kind:?}: a cancelled timer fired");
                now = t.nanos();
            }
            assert!(
                q.peak_queued() <= 2 * OWNERS,
                "{kind:?}: peak {} queued for {OWNERS} owners",
                q.peak_queued()
            );
        }
    }
}

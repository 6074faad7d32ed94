//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)` so that two events scheduled for
//! the same instant fire in the order they were scheduled — this is what
//! makes whole-scenario replays bit-identical.
//!
//! Two queue implementations share that contract:
//!
//! * [`Calendar`] (the default) — a bucketed calendar queue: a timing wheel
//!   of power-of-two-width windows with an overflow heap for events beyond
//!   the horizon, rebucketed lazily as the horizon advances. Inserts and
//!   pops are O(1) amortized and payloads live inline in the bucket
//!   entries, so the hot path allocates nothing.
//! * [`ReferenceHeap`] — the original single `BinaryHeap` scheduler, kept
//!   behind [`QueueKind::ReferenceHeap`] as the equivalence baseline for
//!   tests and benchmarks.
//!
//! A scheduled event always fires: there is no cancellation. A handler
//! whose target may be gone by the time it fires checks liveness in the
//! world (the platform arena's generations, a flight's attempt number).
//! Both queues pop events in exactly the same order on any schedule; the
//! property tests in `tests/prop_queue.rs` prove it.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Boxed event handler stored in the queue (the cold-path payload).
pub(crate) type Action<W> = Box<dyn FnOnce(&mut W, &mut crate::sim::Simulator<W>)>;

/// Small copyable payload carried by an allocation-free event.
///
/// Hot paths pack everything a handler needs (an arena index, a generation,
/// a tag) into these two words instead of capturing it in a boxed closure.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::{EventData, SimDuration, Simulator};
///
/// let mut sim: Simulator<u64> = Simulator::new();
/// sim.schedule_data_in(
///     SimDuration::from_millis(1),
///     |w, _, d| *w += d.a + d.b,
///     EventData::new(40, 2),
/// );
/// let mut world = 0;
/// sim.run(&mut world);
/// assert_eq!(world, 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventData {
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl EventData {
    /// Packs two words.
    pub const fn new(a: u64, b: u64) -> Self {
        EventData { a, b }
    }

    /// Packs a single word (`b` is zero).
    pub const fn one(a: u64) -> Self {
        EventData { a, b: 0 }
    }
}

/// An event handler plus whatever state it carries.
///
/// `Fn` and `Data` are copy-free (a function pointer and at most two words,
/// stored inline in the queue entry); `Boxed` keeps the original closure
/// path for cold paths, tests and one-off scenarios.
pub(crate) enum Payload<W> {
    Boxed(Action<W>),
    Fn(fn(&mut W, &mut crate::sim::Simulator<W>)),
    Data(
        fn(&mut W, &mut crate::sim::Simulator<W>, EventData),
        EventData,
    ),
}

/// Which event-queue implementation a simulator runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Bucketed calendar queue (O(1) amortized; the production default).
    #[default]
    Calendar,
    /// The original binary-heap scheduler, kept as the equivalence
    /// reference for tests and benchmarks.
    ReferenceHeap,
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// A queue entry: the full ordering key and the payload *inline*. Keeping
/// the payload in the entry (rather than in a side slab) means a pop
/// touches only memory the staging sort already pulled into cache.
struct Entry<W> {
    at: SimTime,
    seq: u64,
    payload: Payload<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for Entry<W> {}

impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Initial number of wheel buckets (power of two).
const BUCKETS_MIN: usize = 256;
/// Bucket-count ceiling; beyond this, occupancy just grows.
const BUCKETS_MAX: usize = 1 << 16;
/// Initial window width exponent: 1 << 10 µs ≈ 1 ms per bucket.
const WSHIFT_INIT: u32 = 10;
/// Narrowest window: 4 µs.
const WSHIFT_MIN: u32 = 2;
/// Widest window: ~4.2 s.
const WSHIFT_MAX: u32 = 22;
/// Staged-bucket sample size between width-adaptation decisions.
const ADAPT_SAMPLE: u64 = 512;
/// A staged window larger than this narrows the width immediately instead
/// of waiting out the sample — both to keep staging sorts small and to
/// bound how much capacity buckets ratchet up before adaptation reacts.
const NARROW_NOW: usize = 256;
/// Max spare capacity (entries) a drained bucket keeps. Allocations
/// circulate between `current` and the buckets via swap; without a bound,
/// every bucket on the wheel eventually ratchets up to peak-window
/// capacity, which at city scale is hundreds of megabytes of idle Vecs.
const BUCKET_RETAIN: usize = 8;

/// Bucketed calendar queue: a timing wheel over `[wheel_win, wheel_win + n)`
/// windows of `1 << wshift` µs each, an overflow min-heap for events beyond
/// the horizon (pulled in lazily, window by window, as the wheel advances),
/// and a staged `current` run holding the events of every window the wheel
/// has already passed.
///
/// The staged run is a *sorted vector drained from its tail*, not a heap: a
/// window's bucket is sorted once on staging (`O(k log k)` with tiny,
/// cache-friendly constants) and then popped in `O(1)`, where a heap would
/// pay two `O(log k)` sifts per event. Handlers that schedule into an
/// already-staged window (e.g. zero-delay events) land in the small `late`
/// min-heap instead; every pop takes the smaller of the two heads, so the
/// merged order is still exactly `(time, seq)`-minimal.
///
/// Invariant: every entry with window `< wheel_win` is in
/// `current` or `late`; windows `[wheel_win, wheel_win + n)` live in
/// their bucket; everything later sits in `overflow`. The smaller of the
/// `current`/`late` heads is therefore always the global `(time, seq)`
/// minimum, which is what preserves the determinism contract.
pub(crate) struct Calendar<W> {
    buckets: Vec<Vec<Entry<W>>>,
    /// One bit per bucket: set while the bucket holds any entry.
    occupied: Vec<u64>,
    /// Entries across all buckets.
    wheel_count: usize,
    /// Window width is `1 << wshift` microseconds.
    wshift: u32,
    /// First window covered by the wheel.
    wheel_win: u64,
    /// The staged window, sorted *descending* by `(at, seq)` so the head is
    /// the tail and draining is `Vec::pop` — the entry moves out wholesale,
    /// leaving no hole to skip and nothing for `clear` to drop.
    current: Vec<Entry<W>>,
    /// Entries scheduled into already-staged windows after staging.
    late: BinaryHeap<Reverse<Entry<W>>>,
    overflow: BinaryHeap<Reverse<Entry<W>>>,
    next_seq: u64,
    len: usize,
    // Width adaptation counters (deterministic functions of the schedule).
    staged_buckets: u64,
    staged_entries: u64,
    skipped_windows: u64,
}

impl<W> Calendar<W> {
    fn new() -> Self {
        Calendar {
            buckets: (0..BUCKETS_MIN).map(|_| Vec::new()).collect(),
            occupied: vec![0; BUCKETS_MIN / 64],
            wheel_count: 0,
            wshift: WSHIFT_INIT,
            wheel_win: 0,
            current: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            staged_buckets: 0,
            staged_entries: 0,
            skipped_windows: 0,
        }
    }

    /// Stages the next window if both the run and the `late` heap are
    /// empty, then returns `(at, from_late)` for the smaller of their two
    /// heads; `None` when the queue is drained. Both `pop` and `peek_time`
    /// funnel through this one helper, so the two paths cannot drift.
    // mdlint::hot
    fn settle(&mut self) -> Option<(SimTime, bool)> {
        if self.current.is_empty() && self.late.is_empty() && !self.advance_window() {
            return None;
        }
        let late = self.late.peek().map(|Reverse(e)| e);
        match (self.current.last(), late) {
            (Some(a), Some(b)) if b < a => Some((b.at, true)),
            (Some(a), _) => Some((a.at, false)),
            (None, b) => b.map(|b| (b.at, true)),
        }
    }

    #[inline]
    fn win_of(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.wshift
    }

    // mdlint::hot
    fn push(&mut self, at: SimTime, payload: Payload<W>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert_entry(Entry { at, seq, payload });
        self.len += 1;
        if self.len > self.buckets.len() * 4 && self.buckets.len() < BUCKETS_MAX {
            let n = self.buckets.len() * 2;
            self.rebuild(self.wshift, n);
        }
    }

    fn insert_entry(&mut self, e: Entry<W>) {
        let win = self.win_of(e.at);
        let n = self.buckets.len() as u64;
        if win < self.wheel_win {
            self.late.push(Reverse(e));
        } else if win < self.wheel_win + n {
            let b = (win & (n - 1)) as usize;
            self.buckets[b].push(e);
            self.occupied[b / 64] |= 1 << (b % 64);
            self.wheel_count += 1;
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    // mdlint::hot
    fn pop(&mut self) -> Option<(SimTime, Payload<W>)> {
        let (_, from_late) = self.settle()?;
        let e = if from_late {
            self.late.pop()?.0
        } else {
            self.current.pop()?
        };
        self.len -= 1;
        Some((e.at, e.payload))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(at, _)| at)
    }

    /// Stages the earliest non-empty wheel window into `current`, jumping
    /// over empty windows via the occupancy bitmap and pulling overflow
    /// entries into the wheel as its coverage advances (the lazy
    /// rebucketing step). `false` when no entries remain anywhere.
    fn advance_window(&mut self) -> bool {
        debug_assert!(self.current.is_empty() && self.late.is_empty());
        loop {
            if self.wheel_count == 0 {
                let Some(Reverse(first)) = self.overflow.peek() else {
                    return false;
                };
                // The wheel is empty: jump it to the overflow's earliest
                // window and pull one horizon's worth of entries in.
                self.wheel_win = self.win_of(first.at);
                self.pull_overflow();
                continue;
            }
            let n = self.buckets.len();
            let cursor = (self.wheel_win & (n as u64 - 1)) as usize;
            let j = self.next_occupied(cursor);
            if j > 0 {
                self.wheel_win += j as u64;
                self.skipped_windows += j as u64;
                // Coverage moved forward: entries just beyond the old
                // horizon may now belong on the wheel.
                self.pull_overflow();
            }
            let b = (cursor + j) & (n - 1);
            // Swap rather than take so the drained `current` allocation is
            // recycled as the bucket's next backing store — but never hand
            // a bucket more than BUCKET_RETAIN spare capacity, or every
            // bucket on the wheel ratchets up to peak-window size.
            self.current.clear();
            if self.current.capacity() > BUCKET_RETAIN {
                self.current = Vec::new();
            }
            std::mem::swap(&mut self.current, &mut self.buckets[b]);
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.wheel_count -= self.current.len();
            self.staged_buckets += 1;
            self.staged_entries += self.current.len() as u64;
            // One sort per window instead of two heap sifts per event;
            // descending, because the run drains from the tail.
            self.current.sort_unstable_by(|a, b| b.cmp(a));
            // The staged window is now the past: later pushes into it go
            // to the `late` heap, preserving (time, seq) order.
            self.wheel_win += 1;
            self.pull_overflow();
            if self.current.len() > NARROW_NOW && self.wshift > WSHIFT_MIN {
                // An over-full window: don't wait out the sample, narrow
                // right away (still a pure function of the schedule).
                let (wshift, n) = (self.wshift - 1, self.buckets.len());
                self.rebuild(wshift, n);
                self.staged_buckets = 0;
                self.staged_entries = 0;
                self.skipped_windows = 0;
            } else {
                self.maybe_adapt();
            }
            return true;
        }
    }

    /// Moves every overflow entry whose window is now covered by the wheel
    /// into its bucket.
    fn pull_overflow(&mut self) {
        let end = self.wheel_win + self.buckets.len() as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            if self.win_of(e.at) >= end {
                break;
            }
            let Some(Reverse(e)) = self.overflow.pop() else {
                break;
            };
            self.insert_entry(e);
        }
    }

    /// Circular distance from `cursor` to the first occupied bucket.
    fn next_occupied(&self, cursor: usize) -> usize {
        let n = self.buckets.len();
        let nwords = self.occupied.len();
        let (w0, bit) = (cursor / 64, cursor % 64);
        let first = self.occupied[w0] & (!0u64 << bit);
        if first != 0 {
            return w0 * 64 + first.trailing_zeros() as usize - cursor;
        }
        for i in 1..=nwords {
            let w = (w0 + i) % nwords;
            if self.occupied[w] != 0 {
                let pos = w * 64 + self.occupied[w].trailing_zeros() as usize;
                return ((pos + n) - cursor) % n;
            }
        }
        0
    }

    /// Every [`ADAPT_SAMPLE`] staged windows, re-estimates the window width
    /// from observed occupancy: crowded windows narrow the width, long runs
    /// of empty windows widen it. Purely a function of the schedule, so
    /// replays stay bit-identical.
    fn maybe_adapt(&mut self) {
        if self.staged_buckets < ADAPT_SAMPLE {
            return;
        }
        let avg_occ = self.staged_entries / self.staged_buckets;
        // Only occupied windows are staged, so avg_occ is always >= 1;
        // "mostly singleton windows plus long skips" is the sparse signal.
        let sparse = self.staged_entries <= self.staged_buckets
            && self.skipped_windows > self.staged_buckets * 4;
        self.staged_buckets = 0;
        self.staged_entries = 0;
        self.skipped_windows = 0;
        if avg_occ > 8 && self.wshift > WSHIFT_MIN {
            self.rebuild(self.wshift - 1, self.buckets.len());
        } else if sparse && self.wshift < WSHIFT_MAX {
            self.rebuild(self.wshift + 1, self.buckets.len());
        }
    }

    /// Redistributes wheel + overflow entries under a new width and/or
    /// bucket count. `current` (the already-staged past) is untouched.
    // mdlint::cold
    fn rebuild(&mut self, wshift: u32, nbuckets: usize) {
        let mut entries: Vec<Entry<W>> = Vec::with_capacity(self.wheel_count + self.overflow.len());
        for b in &mut self.buckets {
            entries.append(b);
        }
        while let Some(Reverse(e)) = self.overflow.pop() {
            entries.push(e);
        }
        // Re-anchor the first covered window to the same instant under the
        // new width (rounding down; no entry precedes the old window start).
        let anchor = self.wheel_win << self.wshift;
        self.wshift = wshift;
        self.wheel_win = anchor >> wshift;
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
            self.occupied = vec![0; nbuckets.div_ceil(64)];
        } else {
            for b in &mut self.buckets {
                b.clear();
                if b.capacity() > BUCKET_RETAIN {
                    *b = Vec::new();
                }
            }
            self.occupied.fill(0);
        }
        self.wheel_count = 0;
        for e in entries {
            self.insert_entry(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Reference heap (the seed scheduler)
// ---------------------------------------------------------------------------

struct RefScheduled<W> {
    at: SimTime,
    seq: u64,
    payload: Payload<W>,
}

impl<W> PartialEq for RefScheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for RefScheduled<W> {}

impl<W> PartialOrd for RefScheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for RefScheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest
        // sequence) event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original single binary-heap scheduler, kept as the equivalence
/// reference.
pub(crate) struct ReferenceHeap<W> {
    heap: BinaryHeap<RefScheduled<W>>,
    next_seq: u64,
}

impl<W> ReferenceHeap<W> {
    fn new() -> Self {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    // mdlint::hot
    fn push(&mut self, at: SimTime, payload: Payload<W>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefScheduled { at, seq, payload });
    }

    // mdlint::hot
    fn pop(&mut self) -> Option<(SimTime, Payload<W>)> {
        let ev = self.heap.pop()?;
        Some((ev.at, ev.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.at)
    }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// Min-queue of scheduled events, backed by either the calendar queue or
/// the reference heap.
pub(crate) enum EventQueue<W> {
    Calendar(Calendar<W>),
    Reference(ReferenceHeap<W>),
}

impl<W> EventQueue<W> {
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(Calendar::new()),
            QueueKind::ReferenceHeap => EventQueue::Reference(ReferenceHeap::new()),
        }
    }

    // mdlint::hot
    pub fn push(&mut self, at: SimTime, payload: Payload<W>) {
        match self {
            EventQueue::Calendar(q) => q.push(at, payload),
            EventQueue::Reference(q) => q.push(at, payload),
        }
    }

    /// Pops the next event.
    // mdlint::hot
    pub fn pop(&mut self) -> Option<(SimTime, Payload<W>)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Reference(q) => q.pop(),
        }
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Calendar(q) => q.peek_time(),
            EventQueue::Reference(q) => q.peek_time(),
        }
    }

    /// Exact number of scheduled, not yet fired events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len,
            EventQueue::Reference(q) => q.heap.len(),
        }
    }

    #[cfg(test)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type W = Vec<u32>;

    fn noop() -> Payload<W> {
        Payload::Boxed(Box::new(|_, _| {}))
    }

    fn queues() -> [EventQueue<W>; 2] {
        [
            EventQueue::new(QueueKind::Calendar),
            EventQueue::new(QueueKind::ReferenceHeap),
        ]
    }

    fn tagged(tag: u64) -> Payload<W> {
        Payload::Data(|_, _, _| {}, EventData::one(tag))
    }

    fn tag_of(popped: Option<(SimTime, Payload<W>)>) -> Option<(SimTime, u64)> {
        match popped? {
            (at, Payload::Data(_, d)) => Some((at, d.a)),
            _ => None,
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        for mut q in queues() {
            let t1 = SimTime::from_millis(5);
            let t0 = SimTime::from_millis(1);
            q.push(t1, tagged(0));
            q.push(t0, tagged(1));
            q.push(t1, tagged(2));
            assert_eq!(q.len(), 3);
            assert_eq!(q.peek_time(), Some(t0));
            assert_eq!(tag_of(q.pop()), Some((t0, 1)));
            assert_eq!(q.peek_time(), Some(t1));
            assert_eq!(q.len(), 2);
            assert_eq!(tag_of(q.pop()), Some((t1, 0)), "same instant pops FIFO");
            assert_eq!(tag_of(q.pop()), Some((t1, 2)));
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn same_instant_fifo_across_bucket_boundaries() {
        // Schedule batches far enough apart to land in distinct calendar
        // windows (and force overflow + lazy rebucketing), with same-time
        // collisions inside each batch; pops must be (time, seq)-ordered.
        let mut q: EventQueue<Vec<u32>> = EventQueue::new(QueueKind::Calendar);
        let mut expect = Vec::new();
        let mut seq = 0u64;
        for step in 0..2_000u64 {
            let t = SimTime::from_micros(step * 997); // crosses 1 ms windows
            for _ in 0..3 {
                q.push(t, noop());
                expect.push((t, seq));
                seq += 1;
            }
        }
        // A far-future batch that must sit in overflow until the horizon
        // advances to it.
        let far = SimTime::from_secs(3_600);
        for _ in 0..5 {
            q.push(far, noop());
            expect.push((far, seq));
            seq += 1;
        }
        expect.sort_by_key(|&(t, s)| (t, s));
        let mut got = Vec::new();
        while let Some((at, _)) = q.pop() {
            got.push(at);
        }
        assert_eq!(got.len(), expect.len());
        assert_eq!(
            got,
            expect.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            "pop order must follow (time, seq) across windows"
        );
    }
}

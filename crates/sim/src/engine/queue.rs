//! The engine's pending-event queue: a canonical total order and two
//! interchangeable implementations.
//!
//! ## Canonical event order
//!
//! Events are ordered by `(t, kind, uid, idx)`. Timestamp ties are broken
//! deterministically by a key derived from the program itself, not by
//! insertion sequence, so the pop order does not depend on how the engine
//! happened to schedule events (inline cascades, elided events, queue
//! implementation):
//!
//! * `kind` — [`QEvent::KIND_WAKE`] < inject < wire-arrival < delivered,
//! * `uid` — for rank wakes the rank id; for message events a stable message
//!   uid `(src_rank << 40) | k` where `k` counts the rank's sends in program
//!   order. Both are execution-independent.
//!
//! Keys are unique in engine use (one pending wake per rank, one lifecycle
//! event of each kind per message), so the order is total and seed-stable.
//!
//! ## Implementations
//!
//! * [`EventQueue::heap`] — a plain binary heap, best at small rank counts.
//! * [`EventQueue::calendar`] — a Brown-style calendar queue: a ring of
//!   unsorted future buckets (`O(1)` insert) plus a small heap holding only
//!   the current bucket. Events beyond one ring lap live in an overflow list
//!   that is re-dripped as the ring advances. At 10K+ ranks this replaces the
//!   `O(log n)` heap churn of tens of thousands of pending events with
//!   near-constant-time operations.
//!
//! [`EventQueue::auto`] picks between them from the expected scale;
//! equivalence of pop order is pinned by proptest (see
//! `crates/sim/tests/queue_equivalence.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending event: timestamp, kind, canonical uid and the payload index
/// (rank for wakes, message-table index otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QEvent {
    /// Event time (finite; debug-asserted on push).
    pub t: f64,
    /// Event kind, one of the `KIND_*` constants; part of the sort key.
    pub kind: u8,
    /// Canonical tie-break id (rank or stable message uid).
    pub uid: u64,
    /// Payload: rank index for wakes, message-table index otherwise.
    pub idx: u32,
}

impl QEvent {
    /// Resume a rank (uid = rank).
    pub const KIND_WAKE: u8 = 0;
    /// Message ready for network injection.
    pub const KIND_INJECT: u8 = 1;
    /// Message bits fully arrived at the destination NIC.
    pub const KIND_WIRE: u8 = 2;
    /// Message content available to the destination rank.
    pub const KIND_DELIVERED: u8 = 3;
    /// A rank halts permanently ([`crate::fault::RankCrash`]; uid = rank).
    /// Sorts after same-instant message events: work completing exactly at
    /// the crash time still lands.
    pub const KIND_CRASH: u8 = 4;
}

impl Eq for QEvent {}

impl PartialOrd for QEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QEvent {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Times are finite (asserted on push), so total_cmp is numeric order.
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.uid.cmp(&other.uid))
            .then_with(|| self.idx.cmp(&other.idx))
    }
}

/// Number of ring buckets (power of two; one lap ≈ `nb × width` seconds).
const NBUCKETS: usize = 2048;

/// Rank count at which [`EventQueue::auto`] switches to the calendar.
pub const CALENDAR_MIN_RANKS: usize = 2048;

/// Brown-style calendar queue specialized for simulation-time floats.
///
/// Bucket membership is defined by the *computed* absolute index
/// `floor(t / width)`, which is monotone in `t`, so floating-point edge
/// rounding can never reorder pops — at worst an event lands one bucket
/// early/late and is still drained in key order by the current-bucket heap.
#[derive(Debug)]
pub struct CalendarQueue {
    width_inv: f64,
    /// Future events, slot `b % NBUCKETS` for absolute index `b` in
    /// `(cur, cur + NBUCKETS]`. At most one absolute index per slot alive.
    ring: Vec<Vec<QEvent>>,
    /// Absolute index of the current bucket; its events sit in `cur_events`.
    cur: u64,
    /// Current bucket, sorted *descending* so the minimum pops from the
    /// tail. A bucket holds at most a few hundred events (width tracks the
    /// natural event spacing), so one `sort_unstable` per bucket plus a
    /// contiguous `insert` per late arrival beats a binary heap's
    /// cache-hostile sifts — the heap was ~20% of the 10K-rank profile.
    cur_events: Vec<QEvent>,
    /// Events beyond one ring lap, re-dripped as the ring advances.
    overflow: Vec<QEvent>,
    len: usize,
}

impl CalendarQueue {
    /// New calendar with the given bucket width in seconds.
    pub fn new(width: f64) -> Self {
        assert!(width.is_finite() && width > 0.0, "bucket width must be positive");
        CalendarQueue {
            width_inv: 1.0 / width,
            ring: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            cur: 0,
            cur_events: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn abs_idx(&self, t: f64) -> u64 {
        (t * self.width_inv) as u64
    }

    #[inline]
    fn push(&mut self, e: QEvent) {
        debug_assert!(e.t.is_finite() && e.t >= 0.0, "event time {} out of range", e.t);
        self.len += 1;
        let b = self.abs_idx(e.t);
        if b <= self.cur {
            // Late arrival into the current bucket: sorted insert (keys
            // descending, minimum at the tail).
            let pos = self.cur_events.partition_point(|x| *x > e);
            self.cur_events.insert(pos, e);
        } else if b - self.cur <= NBUCKETS as u64 {
            self.ring[(b % NBUCKETS as u64) as usize].push(e);
        } else {
            self.overflow.push(e);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<QEvent> {
        if self.len == 0 {
            return None;
        }
        while self.cur_events.is_empty() {
            self.advance();
        }
        self.len -= 1;
        self.cur_events.pop()
    }

    #[inline]
    fn peek(&mut self) -> Option<&QEvent> {
        if self.len == 0 {
            return None;
        }
        while self.cur_events.is_empty() {
            self.advance();
        }
        self.cur_events.last()
    }

    /// Sort a freshly filled current bucket into pop order (descending,
    /// minimum at the tail).
    #[inline]
    fn sort_cur(&mut self) {
        self.cur_events.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Move `cur` forward to the next non-empty bucket and drain it into
    /// `cur_events`. Precondition: `cur_events` empty, `len > 0`.
    fn advance(&mut self) {
        let nb = NBUCKETS as u64;
        let mut scanned = 0usize;
        loop {
            self.cur += 1;
            if self.cur.is_multiple_of(nb) && !self.overflow.is_empty() {
                self.redrip();
                if !self.cur_events.is_empty() {
                    self.sort_cur();
                    return;
                }
            }
            let slot = (self.cur % nb) as usize;
            if !self.ring[slot].is_empty() {
                std::mem::swap(&mut self.cur_events, &mut self.ring[slot]);
                self.sort_cur();
                return;
            }
            scanned += 1;
            if scanned >= NBUCKETS {
                // A full empty lap: every remaining event is in overflow.
                // Jump straight to the earliest one instead of spinning.
                debug_assert!(!self.overflow.is_empty());
                let min_b =
                    self.overflow.iter().map(|e| self.abs_idx(e.t)).min().expect("overflow non-empty");
                self.cur = min_b;
                self.redrip();
                if !self.cur_events.is_empty() {
                    self.sort_cur();
                    return;
                }
                scanned = 0;
            }
        }
    }

    /// Move overflow events now within one lap of `cur` into the ring (or
    /// the current bucket, unsorted — callers sort before returning).
    fn redrip(&mut self) {
        let nb = NBUCKETS as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            let b = self.abs_idx(self.overflow[i].t);
            if b <= self.cur {
                let e = self.overflow.swap_remove(i);
                self.cur_events.push(e);
            } else if b - self.cur <= nb {
                let e = self.overflow.swap_remove(i);
                self.ring[(b % nb) as usize].push(e);
            } else {
                i += 1;
            }
        }
    }
}

/// The engine's pending-event queue; see the module docs for the two
/// implementations and when each is used.
#[derive(Debug)]
pub enum EventQueue {
    /// Binary-heap implementation (small rank counts).
    Heap(BinaryHeap<Reverse<QEvent>>),
    /// Calendar-queue implementation (large rank counts).
    Calendar(CalendarQueue),
}

impl EventQueue {
    /// Plain binary heap.
    pub fn heap() -> Self {
        EventQueue::Heap(BinaryHeap::new())
    }

    /// Calendar queue with the given bucket width (seconds).
    pub fn calendar(width: f64) -> Self {
        EventQueue::Calendar(CalendarQueue::new(width))
    }

    /// Pick an implementation for a run of `ranks` ranks whose natural event
    /// spacing is `gap_hint` seconds (the engine passes the inter-node
    /// latency): heap below [`CALENDAR_MIN_RANKS`], calendar above with a
    /// bucket width of half the hint.
    pub fn auto(ranks: usize, gap_hint: f64) -> Self {
        if ranks >= CALENDAR_MIN_RANKS && gap_hint.is_finite() && gap_hint > 0.0 {
            Self::calendar(gap_hint * 0.5)
        } else {
            Self::heap()
        }
    }

    /// Insert an event.
    #[inline]
    pub fn push(&mut self, e: QEvent) {
        debug_assert!(e.t.is_finite() && e.t >= 0.0, "event time {} out of range", e.t);
        match self {
            EventQueue::Heap(h) => h.push(Reverse(e)),
            EventQueue::Calendar(c) => c.push(e),
        }
    }

    /// Remove and return the minimum event in canonical order.
    #[inline]
    pub fn pop(&mut self) -> Option<QEvent> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Calendar(c) => c.pop(),
        }
    }

    /// The minimum pending event, without removing it. Takes `&mut self`
    /// because the calendar may advance its ring to find it.
    #[inline]
    pub fn peek(&mut self) -> Option<&QEvent> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(e)| e),
            EventQueue::Calendar(c) => c.peek(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Calendar(c) => c.len,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: u8, uid: u64) -> QEvent {
        QEvent { t, kind, uid, idx: uid as u32 }
    }

    fn drain(q: &mut EventQueue) -> Vec<QEvent> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn heap_and_calendar_agree_on_a_mixed_batch() {
        let events: Vec<QEvent> = (0..1000)
            .map(|i| {
                let i = i as u64;
                ev((i % 97) as f64 * 1e-6, (i % 4) as u8, i)
            })
            .collect();
        let mut h = EventQueue::heap();
        let mut c = EventQueue::calendar(0.5e-6);
        for &e in &events {
            h.push(e);
            c.push(e);
        }
        assert_eq!(drain(&mut h), drain(&mut c));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut c = EventQueue::calendar(1e-6);
        c.push(ev(5e-6, 0, 1));
        c.push(ev(1e-6, 0, 2));
        assert_eq!(c.pop().unwrap().uid, 2);
        // Push at exactly the current time (events never go backwards).
        c.push(ev(1e-6, 3, 3));
        c.push(ev(2e-3, 0, 4)); // deep into overflow
        assert_eq!(c.pop().unwrap().uid, 3);
        assert_eq!(c.pop().unwrap().uid, 1);
        assert_eq!(c.pop().unwrap().uid, 4);
        assert!(c.pop().is_none());
    }

    #[test]
    fn big_time_jumps_cross_overflow_laps() {
        let mut c = EventQueue::calendar(0.25e-6);
        // One lap is 2048 * 0.25us ≈ 0.5ms; jump whole seconds.
        for i in (0..10u64).rev() {
            c.push(ev(i as f64 * 0.1, 0, i));
        }
        let out = drain(&mut c);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn kind_breaks_timestamp_ties() {
        let mut q = EventQueue::heap();
        q.push(ev(1.0, QEvent::KIND_DELIVERED, 0));
        q.push(ev(1.0, QEvent::KIND_WAKE, 9));
        q.push(ev(1.0, QEvent::KIND_INJECT, 4));
        let kinds: Vec<u8> = drain(&mut q).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![QEvent::KIND_WAKE, QEvent::KIND_INJECT, QEvent::KIND_DELIVERED]);
    }

    #[test]
    fn auto_picks_by_scale() {
        assert!(matches!(EventQueue::auto(64, 2e-6), EventQueue::Heap(_)));
        assert!(matches!(EventQueue::auto(10_240, 2e-6), EventQueue::Calendar(_)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut c = EventQueue::calendar(1e-6);
        for i in 0..100u64 {
            c.push(ev(((i * 37) % 50) as f64 * 1e-6, (i % 4) as u8, i));
        }
        while let Some(&p) = c.peek() {
            assert_eq!(c.pop(), Some(p));
        }
        assert!(c.is_empty());
    }
}

//! The simulator's future-event queue: a binary heap on one packed key.
//!
//! Every scheduled event is ordered by the full lexicographic key
//! `(time, actor-rank, seq)`: earliest time first, ties broken by actor
//! rank, then FIFO by sequence number. [`pack`] folds that triple into
//! one `u128` whose integer order is exactly that order, so the heap
//! compares entries with a single integer compare:
//!
//! - bits 127–64: the time's IEEE bits, mapped so that unsigned order
//!   agrees with [`f64::total_cmp`];
//! - bits 63–56: the actor rank;
//! - bits 55–0: the sequence number, which must stay below 2^56.
//!
//! The simulator keeps each layer's single live timer in a slot of its
//! own and queues here only what can be many: ghost and ghost-bearing
//! deliveries, a second delivery in flight, and handoff legs that land
//! after their flight moved on. So the heap is small and mostly empty:
//! at 5 000 requests per run the sweep presets push at most 0.08 entries
//! per request and peak at five resident, and a superseded timer never
//! stays behind in it. The type is named `CalendarQueue` for API
//! stability: it replaced a bucket calendar queue in the same pop order,
//! and callers and benchmarks name it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Strict "earlier than" on a bare `(time, rank, seq)` key triple — the
/// order [`pack`] encodes, written out as a comparison chain.
pub fn key_lt(a: (f64, u8, u64), b: (f64, u8, u64)) -> bool {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
        .is_lt()
}

/// Bits of the packed key below the time: rank and sequence number.
const TIME_SHIFT: u32 = 64;
/// Bits of the packed key below the rank: the sequence number.
const RANK_SHIFT: u32 = 56;
/// The sign bit of an `f64` and of the time field.
const SIGN: u64 = 1 << 63;

/// Packs a `(time, rank, seq)` key into one `u128` whose unsigned order
/// is [`key_lt`]'s: `pack(a) < pack(b)` exactly when `key_lt(a, b)`.
///
/// A non-negative time gets its sign bit set; a negative one has all its
/// bits flipped, so that more negative times map lower.
///
/// # Panics
///
/// If `seq` does not fit in 56 bits.
pub fn pack((at, rank, seq): (f64, u8, u64)) -> u128 {
    assert!(
        seq < 1 << RANK_SHIFT,
        "event sequence number {seq} overflows 56 bits"
    );
    let bits = at.to_bits();
    // All ones for a negative time, the sign bit alone otherwise.
    let flip = ((bits as i64 >> 63) as u64) | SIGN;
    (u128::from(bits ^ flip) << TIME_SHIFT) | (u128::from(rank) << RANK_SHIFT) | u128::from(seq)
}

/// The inverse of [`pack`].
pub fn unpack(key: u128) -> (f64, u8, u64) {
    let time = (key >> TIME_SHIFT) as u64;
    // A set top bit marks a non-negative time: clear it. Otherwise the
    // whole word was flipped: flip it back.
    let flip = (time >> 63).wrapping_sub(1) | SIGN;
    let rank = (key >> RANK_SHIFT) as u8;
    let seq = (key as u64) & ((1 << RANK_SHIFT) - 1);
    (f64::from_bits(time ^ flip), rank, seq)
}

/// One scheduled entry: its packed key and the payload. Ordered by key,
/// reversed, so that `BinaryHeap`'s maximum is the earliest entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// An exact min-priority queue over `(time, actor-rank, seq)` keys: a
/// [`BinaryHeap`] of entries under their [`pack`]ed keys.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at `at` with tie-break rank `rank` and FIFO
    /// sequence `seq`. Keys must be unique in `(at, rank, seq)` — the
    /// caller's monotone `seq` guarantees it.
    ///
    /// # Panics
    ///
    /// If `seq` does not fit in 56 bits (see [`pack`]).
    pub fn push(&mut self, at: f64, rank: u8, seq: u64, item: T) {
        self.push_packed(pack((at, rank, seq)), item);
    }

    /// Schedules `item` under an already [`pack`]ed key.
    pub(crate) fn push_packed(&mut self, key: u128, item: T) {
        self.heap.push(Entry { key, item });
    }

    /// The packed key of the entry the next [`pop`](Self::pop) will
    /// return, without removing it.
    pub(crate) fn peek_packed(&self) -> Option<u128> {
        self.heap.peek().map(|entry| entry.key)
    }

    /// The key of the entry the next [`pop`](Self::pop) will return,
    /// without removing it.
    pub fn peek_key(&mut self) -> Option<(f64, u8, u64)> {
        self.peek_packed().map(unpack)
    }

    /// Removes and returns the entry with the minimal `(time, rank, seq)`
    /// key, with its time.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap
            .pop()
            .map(|entry| (unpack(entry.key).0, entry.item))
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The reference ordering: the `Ord` the simulator's first
    /// `BinaryHeap<Scheduled>` reversed for its min-heap, on the bare
    /// fields rather than a packed key.
    #[derive(Debug, PartialEq)]
    struct RefEntry {
        at: f64,
        rank: u8,
        seq: u64,
    }
    impl Eq for RefEntry {}
    impl PartialOrd for RefEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .partial_cmp(&self.at)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.rank.cmp(&self.rank))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    fn drain_both(ops: &[(f64, u8)]) {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        for (seq, &(at, rank)) in ops.iter().enumerate() {
            cal.push(at, rank, seq as u64, seq);
            heap.push(RefEntry {
                at,
                rank,
                seq: seq as u64,
            });
        }
        let mut got = Vec::new();
        loop {
            let peek = cal.peek_key();
            let Some((at, seq)) = cal.pop() else {
                assert_eq!(peek, None, "peek saw an entry pop could not find");
                break;
            };
            assert_eq!(
                peek.map(|(t, _, s)| (t, s)),
                Some((at, seq as u64)),
                "peek disagreed with the following pop"
            );
            let expect = heap.pop().expect("heap shorter than calendar");
            assert_eq!(seq as u64, expect.seq, "pop order diverged at {at}");
            got.push(seq);
        }
        assert!(heap.pop().is_none(), "calendar shorter than heap");
        assert_eq!(got.len(), ops.len());
    }

    #[test]
    fn empty_pops_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn orders_by_time_then_rank_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(2.0, 1, 1, "late");
        q.push(1.0, 2, 2, "timer");
        q.push(1.0, 0, 3, "outage");
        q.push(1.0, 1, 4, "deliver-a");
        q.push(1.0, 1, 5, "deliver-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(
            order,
            vec!["outage", "deliver-a", "deliver-b", "timer", "late"]
        );
    }

    #[test]
    fn far_future_entries_pop_after_near_ones() {
        let mut q = CalendarQueue::new();
        // A far-future timer pushed first (a degradation deadline) must
        // not shadow a nearer entry pushed after it.
        q.push(4000.0, 1, 1, "deadline");
        q.push(0.5, 1, 2, "near");
        assert_eq!(q.pop().map(|(_, s)| s), Some("near"));
        assert_eq!(q.pop().map(|(_, s)| s), Some("deadline"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Simulator-shaped interleaving: pushes land both near
        // (deliveries) and far (timers) of the last popped time.
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push =
            |cal: &mut CalendarQueue<u64>, heap: &mut BinaryHeap<RefEntry>, at: f64, rank: u8| {
                seq += 1;
                cal.push(at, rank, seq, seq);
                heap.push(RefEntry { at, rank, seq });
            };
        let mut now = 0.0f64;
        for step in 0..2000u64 {
            let jitter = (step % 7) as f64 * 0.013;
            push(&mut cal, &mut heap, now + 1.0 + jitter, 1);
            push(&mut cal, &mut heap, now + 0.05, 1);
            if step % 5 == 0 {
                push(&mut cal, &mut heap, now + 8.0 + jitter, 2);
            }
            if step % 11 == 0 {
                push(&mut cal, &mut heap, now, 0);
            }
            for round in 0..2 {
                // Peek on alternating rounds so pops both with and
                // without a preceding peek stay exercised.
                let peek = if round == 0 { cal.peek_key() } else { None };
                let got = cal.pop();
                let expect = heap.pop();
                match (got, expect) {
                    (Some((at, s)), Some(e)) => {
                        assert_eq!(s, e.seq, "diverged at t={at}");
                        if round == 0 {
                            assert_eq!(peek.map(|(_, _, ps)| ps), Some(s), "peek diverged");
                        }
                        now = at;
                    }
                    (None, None) => {}
                    (got, expect) => panic!("length diverged: {got:?} vs {expect:?}"),
                }
            }
        }
        while let Some(e) = heap.pop() {
            let Some((_, s)) = cal.pop() else {
                panic!("calendar ran out before the reference heap")
            };
            assert_eq!(s, e.seq);
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn same_instant_burst_is_fifo_within_rank() {
        let mut q = CalendarQueue::new();
        for seq in 0..100u64 {
            q.push(3.25, 1, seq, seq);
        }
        for expect in 0..100u64 {
            assert_eq!(q.pop().map(|(_, s)| s), Some(expect));
        }
    }

    #[test]
    fn grows_and_shrinks_without_losing_entries() {
        let mut q = CalendarQueue::new();
        for seq in 0..500u64 {
            q.push((seq % 97) as f64 * 0.31, 1, seq, seq);
        }
        assert_eq!(q.len(), 500);
        let mut drained = Vec::new();
        while let Some((_, s)) = q.pop() {
            drained.push(s);
        }
        assert_eq!(drained.len(), 500);
        // Exhaustive key order: sort the inputs by (time, rank, seq) and
        // compare.
        let mut expect: Vec<u64> = (0..500).collect();
        expect.sort_by(|&a, &b| {
            ((a % 97) as f64 * 0.31)
                .total_cmp(&((b % 97) as f64 * 0.31))
                .then(a.cmp(&b))
        });
        assert_eq!(drained, expect);
    }

    #[test]
    #[should_panic(expected = "overflows 56 bits")]
    fn sequence_number_past_56_bits_panics() {
        let mut q = CalendarQueue::new();
        q.push(1.0, 1, 1 << 56, ());
    }

    #[test]
    fn large_drain_matches_sorted_reference() {
        // 10^5 keys over a few hundred distinct times and three ranks, so
        // that every tie-break level decides many pops.
        let mut state = 0x0dd_b1a5_e5ca_1ab1u64;
        let mut keys: Vec<(f64, u8, u64)> = (0..100_000u64)
            .map(|seq| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let time = (state >> 40) % 500;
                (time as f64 * 0.125, ((state >> 20) % 3) as u8, seq)
            })
            .collect();
        let mut q = CalendarQueue::new();
        for &(at, rank, seq) in &keys {
            q.push(at, rank, seq, seq);
        }
        assert_eq!(q.len(), keys.len());
        keys.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for &(at, rank, seq) in &keys {
            assert_eq!(q.peek_key(), Some((at, rank, seq)));
            assert_eq!(q.pop(), Some((at, seq)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn randomized_against_reference_heap() {
        // Deterministic pseudo-random workload (SplitMix64 steps) across
        // several shapes; the proptest in `tests/properties.rs` widens
        // this further.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..30 {
            let n = 5 + (case * 17) % 200;
            let ops: Vec<(f64, u8)> = (0..n)
                .map(|_| {
                    let t = (next() % 10_000) as f64 * 0.001;
                    let rank = (next() % 3) as u8;
                    (t, rank)
                })
                .collect();
            drain_both(&ops);
        }
    }
}

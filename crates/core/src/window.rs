//! The k-bit request window (§4).
//!
//! The paper specifies the window implementation precisely: "The window is
//! tracked as a sequence of k bits (e.g. 0 represents a read and 1
//! represents a write). At the receipt of any relevant request, the computer
//! in charge drops the last bit in the sequence and adds a bit representing
//! the current operation." This module implements exactly that — a
//! fixed-capacity ring of bits with an incrementally maintained write count,
//! O(1) per request and allocation-free after construction.
//!
//! The window is also the object handed between the MC and the SC when
//! replica ownership migrates (piggybacked on the data response or the
//! delete-request), so it supports cheap snapshot/restore.

use crate::request::Request;
use std::fmt;

/// Bit words kept inline (no heap) — covers every window size the §4
/// policies use in practice (`k ≤ 128`); larger windows spill to a heap
/// allocation. Keeping the common case inline makes cloning a window —
/// and with it cloning node state for checkpoints, and shipping windows
/// inside wire messages — a flat memcpy on the simulator's hot path.
const INLINE_WORDS: usize = 2;

/// Backing storage for the window bits: inline words for `k ≤ 128`,
/// heap-spilled words beyond. The variant is a function of `k` alone, so
/// derived equality/hashing never compares across variants for windows
/// of the same size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Bits {
    /// `k ≤ 128`: words beyond `k.div_ceil(64)` stay zero.
    Inline([u64; INLINE_WORDS]),
    /// `k > 128`: exactly `k.div_ceil(64)` words.
    Spill(Vec<u64>),
}

impl Bits {
    /// Zeroed storage for `words` 64-bit words.
    fn zeroed(words: usize) -> Self {
        if words <= INLINE_WORDS {
            Bits::Inline([0; INLINE_WORDS])
        } else {
            Bits::Spill(vec![0; words])
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(a) => a,
            Bits::Spill(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bits::Inline(a) => a,
            Bits::Spill(v) => v,
        }
    }
}

/// A sliding window over the last `k` relevant requests, `k` odd (§4).
///
/// With `k` odd there is always a strict majority, and the paper's
/// allocation rule reduces to: the MC should hold a replica **iff** reads
/// form the majority of the window.
///
/// ```
/// use mdr_core::{Request, RequestWindow};
///
/// let mut w = RequestWindow::filled(3, Request::Write);
/// assert!(!w.majority_reads());
/// w.push(Request::Read);
/// w.push(Request::Read);
/// assert!(w.majority_reads()); // window is now [w, r, r]
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestWindow {
    /// Bit i of word `i / 64` holds the request at logical position
    /// `(head + i) % k`... — see `at()` for the mapping. `true` = write.
    bits: Bits,
    /// Window size (odd).
    k: usize,
    /// Index of the slot holding the *oldest* request.
    head: usize,
    /// Number of writes currently in the window.
    writes: usize,
}

impl RequestWindow {
    /// Creates a window of size `k` filled with `fill`.
    ///
    /// The paper does not prescribe the initial window; a window full of
    /// writes models "no replica initially" (the natural cold start where
    /// only the SC holds the item) and a window full of reads models "replica
    /// initially present".
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or even ("for ease of analysis we assume that
    /// k, the window size, is odd", §4).
    pub fn filled(k: usize, fill: Request) -> Self {
        assert!(k >= 1, "window size k must be at least 1");
        assert!(k % 2 == 1, "window size k must be odd (paper §4), got {k}");
        let words = k.div_ceil(64);
        let mut bits = Bits::zeroed(words);
        if fill.is_write() {
            for (i, word) in bits.words_mut()[..words].iter_mut().enumerate() {
                let remaining = k - (i * 64).min(k);
                *word = if remaining >= 64 {
                    u64::MAX
                } else {
                    (1u64 << remaining) - 1
                };
            }
        }
        RequestWindow {
            bits,
            k,
            head: 0,
            writes: if fill.is_write() { k } else { 0 },
        }
    }

    /// Builds a window from the last `k` requests, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` is zero or even (§4 assumes odd `k`).
    pub fn from_requests(requests: &[Request]) -> Self {
        let mut w = RequestWindow::filled(requests.len(), Request::Read);
        // Pushing each request in order leaves the slice contents in the
        // window with the same oldest-first order.
        for &r in requests {
            w.push(r);
        }
        w
    }

    /// The window size `k` (§4, odd).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of write bits currently in the §4 window.
    #[inline]
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// Number of read bits currently in the §4 window.
    #[inline]
    pub fn reads(&self) -> usize {
        self.k - self.writes
    }

    /// Whether reads form the strict majority — the §4 allocation condition
    /// (always decisive because `k` is odd).
    #[inline]
    pub fn majority_reads(&self) -> bool {
        self.reads() > self.writes
    }

    /// Raw bit accessor: physical slot `slot`.
    #[inline]
    fn bit(&self, slot: usize) -> bool {
        (self.bits.words()[slot / 64] >> (slot % 64)) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, slot: usize, value: bool) {
        let mask = 1u64 << (slot % 64);
        let word = &mut self.bits.words_mut()[slot / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The request at logical position `i` (0 = oldest, `k - 1` = newest) in
    /// the §4 bit sequence.
    pub fn at(&self, i: usize) -> Request {
        assert!(i < self.k, "window index {i} out of range (k = {})", self.k);
        let slot = (self.head + i) % self.k;
        Request::from_bit(self.bit(slot))
    }

    /// The oldest request — the bit §4's window update drops on the next
    /// [`push`](Self::push).
    #[inline]
    pub fn oldest(&self) -> Request {
        Request::from_bit(self.bit(self.head))
    }

    /// The newest request — the bit §4's window update appended last.
    pub fn newest(&self) -> Request {
        self.at(self.k - 1)
    }

    /// Slides the window exactly as §4 specifies: drops the oldest bit and
    /// appends `req`. Returns the dropped request. O(1).
    pub fn push(&mut self, req: Request) -> Request {
        let dropped = Request::from_bit(self.bit(self.head));
        self.set_bit(self.head, req.as_bit());
        self.head = (self.head + 1) % self.k;
        self.writes = self.writes - usize::from(dropped.is_write()) + usize::from(req.is_write());
        dropped
    }

    /// The window contents, oldest first — the human-readable form of the
    /// §4 bit sequence.
    pub fn to_requests(&self) -> Vec<Request> {
        (0..self.k).map(|i| self.at(i)).collect()
    }

    /// The same logical window re-based so the oldest request sits in
    /// slot 0 (`head == 0`) — exactly the representation
    /// [`from_requests`](Self::from_requests) builds. This is the form
    /// shipped between MC and SC on ownership handoff (§4): re-basing at
    /// the sender keeps the receiving side's representation (and thus
    /// derived equality/hashing of node state, which the model checker
    /// relies on for deduplication) independent of the sender's ring
    /// position, without round-tripping through a heap-allocated request
    /// vector.
    pub fn canonical(&self) -> RequestWindow {
        if self.head == 0 {
            return self.clone();
        }
        let mut out = RequestWindow {
            bits: Bits::zeroed(self.k.div_ceil(64)),
            k: self.k,
            head: 0,
            writes: self.writes,
        };
        for i in 0..self.k {
            if self.at(i).is_write() {
                out.set_bit(i, true);
            }
        }
        out
    }
}

// Hand-written (de)serialization keeping the exact field layout the
// pre-inline-storage representation derived (`bits` as a word array of
// length `k.div_ceil(64)`), so snapshots round-trip across the storage
// change.
impl serde::Serialize for RequestWindow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "bits".into(),
                self.bits.words()[..self.k.div_ceil(64)].to_vec().to_value(),
            ),
            ("k".into(), self.k.to_value()),
            ("head".into(), self.head.to_value()),
            ("writes".into(), self.writes.to_value()),
        ])
    }
}

impl serde::Deserialize for RequestWindow {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = serde::de_object(value, "RequestWindow")?;
        let words_vec: Vec<u64> = serde::de_field(fields, "bits", "RequestWindow")?;
        let k: usize = serde::de_field(fields, "k", "RequestWindow")?;
        let head: usize = serde::de_field(fields, "head", "RequestWindow")?;
        let writes: usize = serde::de_field(fields, "writes", "RequestWindow")?;
        let words = k.div_ceil(64);
        if k == 0 || k % 2 == 0 || words_vec.len() != words || head >= k || writes > k {
            return Err(serde::Error::custom("malformed request window"));
        }
        let mut bits = Bits::zeroed(words);
        bits.words_mut()[..words].copy_from_slice(&words_vec);
        Ok(RequestWindow {
            bits,
            k,
            head,
            writes,
        })
    }
}

impl fmt::Display for RequestWindow {
    /// Renders oldest→newest, e.g. `[wrr]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.k {
            write!(f, "{}", self.at(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_with_reads() {
        let w = RequestWindow::filled(5, Request::Read);
        assert_eq!(w.k(), 5);
        assert_eq!(w.reads(), 5);
        assert_eq!(w.writes(), 0);
        assert!(w.majority_reads());
    }

    #[test]
    fn filled_with_writes() {
        let w = RequestWindow::filled(5, Request::Write);
        assert_eq!(w.writes(), 5);
        assert!(!w.majority_reads());
        assert_eq!(w.to_requests(), vec![Request::Write; 5]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_k_is_rejected() {
        let _ = RequestWindow::filled(4, Request::Read);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_is_rejected() {
        let _ = RequestWindow::filled(0, Request::Read);
    }

    #[test]
    fn push_slides_and_returns_dropped() {
        let mut w = RequestWindow::filled(3, Request::Read);
        assert_eq!(w.push(Request::Write), Request::Read); // [r r w]
        assert_eq!(w.push(Request::Write), Request::Read); // [r w w]
        assert_eq!(w.writes(), 2);
        assert!(!w.majority_reads());
        assert_eq!(w.push(Request::Read), Request::Read); // [w w r]
        assert_eq!(
            w.to_requests(),
            vec![Request::Write, Request::Write, Request::Read]
        );
        assert_eq!(w.push(Request::Read), Request::Write); // [w r r]
        assert!(w.majority_reads());
    }

    #[test]
    fn oldest_and_newest() {
        let mut w = RequestWindow::filled(3, Request::Read);
        w.push(Request::Write); // [r r w]
        assert_eq!(w.oldest(), Request::Read);
        assert_eq!(w.newest(), Request::Write);
    }

    #[test]
    fn from_requests_preserves_order() {
        let reqs = vec![Request::Write, Request::Read, Request::Write];
        let w = RequestWindow::from_requests(&reqs);
        assert_eq!(w.to_requests(), reqs);
        assert_eq!(w.writes(), 2);
    }

    #[test]
    fn display_renders_oldest_first() {
        let w = RequestWindow::from_requests(&[Request::Write, Request::Read, Request::Read]);
        assert_eq!(w.to_string(), "[wrr]");
    }

    #[test]
    fn k_one_window() {
        let mut w = RequestWindow::filled(1, Request::Write);
        assert!(!w.majority_reads());
        w.push(Request::Read);
        assert!(w.majority_reads());
        assert_eq!(w.push(Request::Write), Request::Read);
        assert!(!w.majority_reads());
    }

    #[test]
    fn large_window_spanning_multiple_words() {
        // k = 129 needs three 64-bit words; exercise the word-boundary code.
        let mut w = RequestWindow::filled(129, Request::Write);
        assert_eq!(w.writes(), 129);
        for _ in 0..65 {
            w.push(Request::Read);
        }
        assert_eq!(w.reads(), 65);
        assert_eq!(w.writes(), 64);
        assert!(w.majority_reads());
        // The newest 65 entries are reads, the oldest 64 still writes.
        for i in 0..64 {
            assert_eq!(w.at(i), Request::Write, "position {i}");
        }
        for i in 64..129 {
            assert_eq!(w.at(i), Request::Read, "position {i}");
        }
    }

    #[test]
    fn canonical_rebases_without_changing_contents() {
        let mut w = RequestWindow::filled(5, Request::Read);
        // Push a non-multiple of k so the ring head lands mid-array.
        for &r in &[Request::Write, Request::Read, Request::Write] {
            w.push(r);
        }
        assert_ne!(w.head, 0, "the test needs a rotated ring to be meaningful");
        let canon = w.canonical();
        // Same logical window...
        assert_eq!(canon.to_requests(), w.to_requests());
        assert_eq!(canon.writes(), w.writes());
        assert_eq!(canon.k(), w.k());
        // ...in the exact representation `from_requests` builds, so the
        // derived equality the model checker dedups on sees them as one.
        assert_eq!(canon.head, 0);
        assert_eq!(canon, RequestWindow::from_requests(&w.to_requests()));
        // Re-canonicalising is a fixed point.
        assert_eq!(canon.canonical(), canon);
    }

    /// A filled window has the storage every other constructor gives a
    /// window of its size: it equals its canonical form and its snapshot
    /// round trip on both sides of the inline/heap boundary.
    #[test]
    fn filled_windows_match_their_canonical_and_decoded_forms() {
        use serde::{Deserialize, Serialize};
        for k in [1, 63, 65, 127, 129, 191, 255] {
            for fill in [Request::Read, Request::Write] {
                let w = RequestWindow::filled(k, fill);
                assert_eq!(w.canonical(), w, "k = {k}");
                let decoded = RequestWindow::from_value(&w.to_value());
                assert_eq!(decoded.as_ref(), Ok(&w), "k = {k}");
            }
        }
    }

    #[test]
    fn canonical_spill_window_rebases_too() {
        let mut w = RequestWindow::filled(129, Request::Write);
        for _ in 0..70 {
            w.push(Request::Read);
        }
        let canon = w.canonical();
        assert_eq!(canon.head, 0);
        assert_eq!(canon.to_requests(), w.to_requests());
        assert_eq!(canon, RequestWindow::from_requests(&w.to_requests()));
    }

    #[test]
    fn serde_roundtrip_preserves_ring_state() {
        // Inline storage with a rotated head, and spill storage (k = 129):
        // both must round-trip to the identical struct, ring position
        // included.
        let mut small = RequestWindow::filled(5, Request::Read);
        small.push(Request::Write);
        small.push(Request::Read);
        let mut large = RequestWindow::filled(129, Request::Write);
        for _ in 0..65 {
            large.push(Request::Read);
        }
        for w in [small, large] {
            let value = serde::Serialize::to_value(&w);
            let back: RequestWindow =
                serde::Deserialize::from_value(&value).expect("roundtrip parses");
            assert_eq!(back, w);
            assert_eq!(back.head, w.head);
            assert_eq!(back.to_requests(), w.to_requests());
        }
    }

    #[test]
    fn serde_rejects_malformed_windows() {
        let valid = serde::Serialize::to_value(&RequestWindow::filled(3, Request::Read));
        let corrupt = |field: &str, v: u64| {
            let serde::Value::Object(mut fields) = valid.clone() else {
                panic!("windows serialize to objects")
            };
            for (name, slot) in &mut fields {
                if name == field {
                    *slot = serde::Serialize::to_value(&(v as usize));
                }
            }
            serde::Value::Object(fields)
        };
        for bad in [
            corrupt("k", 0),      // zero size
            corrupt("k", 4),      // even size
            corrupt("k", 129),    // word count no longer matches the bits array
            corrupt("head", 3),   // head out of range
            corrupt("writes", 4), // more writes than slots
        ] {
            assert!(
                <RequestWindow as serde::Deserialize>::from_value(&bad).is_err(),
                "malformed window accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn write_count_always_matches_contents() {
        let mut w = RequestWindow::filled(7, Request::Read);
        let pattern = [
            Request::Write,
            Request::Write,
            Request::Read,
            Request::Write,
            Request::Read,
            Request::Read,
            Request::Write,
            Request::Write,
            Request::Read,
        ];
        for &r in &pattern {
            w.push(r);
            let actual = w.to_requests().iter().filter(|x| x.is_write()).count();
            assert_eq!(w.writes(), actual);
        }
    }
}

//! Schedules: finite sequences of relevant requests (§3).
//!
//! A schedule is the unit over which every algorithm in the paper is costed,
//! and the object quantified over in the competitive analysis ("for any
//! schedule s, COST_A(s) ≤ c · COST_M(s) + b"). This module provides a
//! newtype with parsing, construction helpers for the structured schedules
//! used in the worst-case proofs (runs, cycles, alternations), and summary
//! statistics.

use crate::request::{ParseRequestError, Request};
use std::fmt;
use std::ops::Index;
use std::str::FromStr;

/// A finite sequence of relevant requests on a single data item.
///
/// The textual format is the paper's own: a string of `r`s and `w`s
/// (separators `,`, space and `;` are accepted and ignored), e.g. the §3
/// example schedule `"w,r,r,r,w,r,w"`.
///
/// ```
/// use mdr_core::{Request, Schedule};
///
/// let s: Schedule = "w,r,r,r,w,r,w".parse().unwrap();
/// assert_eq!(s.len(), 7);
/// assert_eq!(s.reads(), 4);
/// assert_eq!(s.writes(), 3);
/// assert_eq!(s[0], Request::Write);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct Schedule(Vec<Request>);

impl Schedule {
    /// Creates an empty schedule (§3's empty sequence of relevant requests).
    pub const fn new() -> Self {
        Schedule(Vec::new())
    }

    /// Wraps an explicit request vector into a §3 schedule.
    pub fn from_requests(requests: Vec<Request>) -> Self {
        Schedule(requests)
    }

    /// A schedule of `n` consecutive reads — the sequence used in §5.3 to
    /// show that ST1 is not competitive.
    pub fn all_reads(n: usize) -> Self {
        Schedule(vec![Request::Read; n])
    }

    /// A schedule of `n` consecutive writes — the sequence used in §5.3 to
    /// show that ST2 is not competitive.
    pub fn all_writes(n: usize) -> Self {
        Schedule(vec![Request::Write; n])
    }

    /// `cycles` repetitions of the block `reads_per_cycle` reads followed by
    /// `writes_per_cycle` writes — the cycle shape of the §5.3/§6.4
    /// worst-case arguments.
    pub fn read_write_cycles(
        reads_per_cycle: usize,
        writes_per_cycle: usize,
        cycles: usize,
    ) -> Self {
        let mut v = Vec::with_capacity(cycles * (reads_per_cycle + writes_per_cycle));
        for _ in 0..cycles {
            v.extend(std::iter::repeat_n(Request::Read, reads_per_cycle));
            v.extend(std::iter::repeat_n(Request::Write, writes_per_cycle));
        }
        Schedule(v)
    }

    /// `cycles` repetitions of writes followed by reads — the canonical
    /// §6.4 adversarial block against SWk (see `mdr-adversary`).
    pub fn write_read_cycles(
        writes_per_cycle: usize,
        reads_per_cycle: usize,
        cycles: usize,
    ) -> Self {
        let mut v = Vec::with_capacity(cycles * (reads_per_cycle + writes_per_cycle));
        for _ in 0..cycles {
            v.extend(std::iter::repeat_n(Request::Write, writes_per_cycle));
            v.extend(std::iter::repeat_n(Request::Read, reads_per_cycle));
        }
        Schedule(v)
    }

    /// A strictly alternating schedule of length `n` starting with `first` —
    /// the §6.4 worst case for SW1 (`r,w,r,w,…`).
    pub fn alternating(first: Request, n: usize) -> Self {
        let mut v = Vec::with_capacity(n);
        let mut cur = first;
        for _ in 0..n {
            v.push(cur);
            cur = cur.flipped();
        }
        Schedule(v)
    }

    /// Decodes index `bits` (little-endian: bit 0 is the first request) into
    /// a schedule of length `len`. Enumerating `0..(1 << len)` enumerates all
    /// §3 schedules of that length; used by the exhaustive worst-case search.
    pub fn from_bits(bits: u64, len: usize) -> Self {
        assert!(len <= 63, "from_bits supports schedules up to length 63");
        let v = (0..len)
            .map(|i| Request::from_bit((bits >> i) & 1 == 1))
            .collect();
        Schedule(v)
    }

    /// Number of relevant requests (§3).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the schedule has no requests (§3).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of reads in the schedule (§3).
    pub fn reads(&self) -> usize {
        self.0.iter().filter(|r| r.is_read()).count()
    }

    /// Number of writes in the schedule (§3).
    pub fn writes(&self) -> usize {
        self.0.iter().filter(|r| r.is_write()).count()
    }

    /// Empirical write fraction θ̂ = writes / len, the quantity the §4
    /// sliding window estimates. Returns `None` for an empty schedule.
    pub fn write_fraction(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.writes() as f64 / self.len() as f64)
        }
    }

    /// Iterates over the requests in schedule order (§3).
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Request>> {
        self.0.iter().copied()
    }

    /// The underlying slice of §3 requests.
    pub fn as_slice(&self) -> &[Request] {
        &self.0
    }

    /// Appends one relevant request (§3).
    pub fn push(&mut self, req: Request) {
        self.0.push(req);
    }

    /// Concatenation of two §3 schedules.
    pub fn concat(&self, other: &Schedule) -> Schedule {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Schedule(v)
    }

    /// The schedule repeated `times` times — how the §5.3/§6.4 adversary
    /// cycles are grown.
    pub fn repeat(&self, times: usize) -> Schedule {
        let mut v = Vec::with_capacity(self.len() * times);
        for _ in 0..times {
            v.extend_from_slice(&self.0);
        }
        Schedule(v)
    }

    /// Prefix of the first `n` requests (or the whole schedule if shorter);
    /// §3 schedules are prefix-closed.
    pub fn prefix(&self, n: usize) -> Schedule {
        Schedule(self.0[..n.min(self.len())].to_vec())
    }

    /// The longest run (block of equal requests) in the schedule, as
    /// `(request, run_length)` — runs drive the §5.3 lower bounds. Returns
    /// `None` for an empty schedule.
    pub fn longest_run(&self) -> Option<(Request, usize)> {
        let mut best: Option<(Request, usize)> = None;
        let mut cur_len = 0usize;
        let mut cur_req = None;
        for req in self {
            if Some(req) == cur_req {
                cur_len += 1;
            } else {
                cur_req = Some(req);
                cur_len = 1;
            }
            if best.is_none_or(|(_, l)| cur_len > l) {
                best = Some((req, cur_len));
            }
        }
        best
    }
}

impl Index<usize> for Schedule {
    type Output = Request;

    fn index(&self, index: usize) -> &Request {
        &self.0[index]
    }
}

impl FromIterator<Request> for Schedule {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        Schedule(iter.into_iter().collect())
    }
}

impl IntoIterator for Schedule {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = Request;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Request>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromStr for Schedule {
    type Err = ParseRequestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut v = Vec::with_capacity(s.len());
        for c in s.chars() {
            if matches!(c, ',' | ' ' | ';' | '\t' | '\n') {
                continue;
            }
            v.push(Request::from_letter(c)?);
        }
        Ok(Schedule(v))
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for req in self {
            write!(f, "{req}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        // §3: "For example, w,r,r,r,w,r,w is a schedule."
        let s: Schedule = "w,r,r,r,w,r,w".parse().unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(s.reads(), 4);
        assert_eq!(s.writes(), 3);
        assert_eq!(s.to_string(), "wrrrwrw");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("rwx".parse::<Schedule>().is_err());
    }

    #[test]
    fn parse_display_roundtrip() {
        let s: Schedule = "rrwwrwr".parse().unwrap();
        let round: Schedule = s.to_string().parse().unwrap();
        assert_eq!(s, round);
    }

    #[test]
    fn all_reads_and_all_writes() {
        assert_eq!(Schedule::all_reads(4).to_string(), "rrrr");
        assert_eq!(Schedule::all_writes(3).to_string(), "www");
        assert_eq!(Schedule::all_reads(0), Schedule::new());
    }

    #[test]
    fn cycles_have_expected_shape() {
        let s = Schedule::write_read_cycles(2, 2, 2);
        assert_eq!(s.to_string(), "wwrrwwrr");
        let s = Schedule::read_write_cycles(3, 1, 2);
        assert_eq!(s.to_string(), "rrrwrrrw");
    }

    #[test]
    fn alternating_starts_correctly() {
        assert_eq!(Schedule::alternating(Request::Read, 5).to_string(), "rwrwr");
        assert_eq!(Schedule::alternating(Request::Write, 4).to_string(), "wrwr");
    }

    #[test]
    fn from_bits_enumerates_all_schedules() {
        use std::collections::HashSet;
        let all: HashSet<String> = (0u64..8)
            .map(|b| Schedule::from_bits(b, 3).to_string())
            .collect();
        assert_eq!(all.len(), 8);
        assert!(all.contains("rrr"));
        assert!(all.contains("www"));
        assert!(all.contains("wrr")); // bit 0 set → first request is a write
    }

    #[test]
    fn write_fraction() {
        let s: Schedule = "rrww".parse().unwrap();
        assert_eq!(s.write_fraction(), Some(0.5));
        assert_eq!(Schedule::new().write_fraction(), None);
    }

    #[test]
    fn concat_repeat_prefix() {
        let a: Schedule = "rw".parse().unwrap();
        let b: Schedule = "ww".parse().unwrap();
        assert_eq!(a.concat(&b).to_string(), "rwww");
        assert_eq!(a.repeat(3).to_string(), "rwrwrw");
        assert_eq!(a.repeat(0), Schedule::new());
        assert_eq!(a.concat(&b).prefix(3).to_string(), "rww");
        assert_eq!(a.prefix(99), a);
    }

    #[test]
    fn longest_run_finds_the_longest_block() {
        let s: Schedule = "rwwwrrw".parse().unwrap();
        assert_eq!(s.longest_run(), Some((Request::Write, 3)));
        assert_eq!(Schedule::new().longest_run(), None);
        let s: Schedule = "r".parse().unwrap();
        assert_eq!(s.longest_run(), Some((Request::Read, 1)));
    }

    #[test]
    fn iterator_traits() {
        let s: Schedule = "rw".parse().unwrap();
        let collected: Schedule = s.iter().collect();
        assert_eq!(collected, s);
        let v: Vec<Request> = (&s).into_iter().collect();
        assert_eq!(v, vec![Request::Read, Request::Write]);
    }
}

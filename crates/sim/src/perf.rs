//! Performance instrumentation for the simulate/sweep hot path.
//!
//! Three small, composable pieces:
//!
//! * [`PerfStats`] — the typed run measurement (events processed, wall
//!   nanoseconds) every perf-reporting entry point returns.
//!   Event counts are deterministic simulation facts; wall time is
//!   measurement metadata and never feeds simulation state, ledgers, or
//!   digests.
//! * [`Stopwatch`] — the one sanctioned wall-clock read. It exists so
//!   timing stays at the measurement boundary (`Simulation::run_timed`,
//!   `SweepGrid::run_timed`, `mdr bench`) instead of leaking into event
//!   handlers; the determinism audit allowlists exactly those wrappers.
//! * [`BatchedF64`] — a buffered uniform-draw stream over the blessed
//!   SplitMix64-seeded `StdRng`. The hot loops drain draws from a
//!   refill-in-blocks buffer instead of paying a virtual-free but
//!   branchy per-call path; the underlying xoshiro stream and therefore
//!   every drawn value is bit-identical to unbatched draws, which is what
//!   keeps the pinned sweep ledger digests valid.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// How many uniform draws a [`BatchedF64`] refill produces at once.
/// Small enough that a quiescent stream wastes little work, large enough
/// to amortize the refill call in the hot loops.
const BATCH: usize = 16;

/// A measured run: deterministic event count plus wall-clock metadata.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct PerfStats {
    /// Events the simulation loop processed (deterministic: a pure
    /// function of config, workload, and seeds).
    pub events: u64,
    /// Wall-clock nanoseconds the measured section took (measurement
    /// metadata; varies run to run and machine to machine).
    pub wall_nanos: u64,
}

/// The sanctioned wall-clock: started at the measurement boundary,
/// stopped once, never consulted by simulation logic.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Stops the clock against `events` processed, producing the run's
    /// [`PerfStats`]. Saturates at `u64::MAX` nanoseconds.
    pub fn stats(&self, events: u64) -> PerfStats {
        let nanos = self.started.elapsed().as_nanos();
        PerfStats {
            events,
            wall_nanos: u64::try_from(nanos).unwrap_or(u64::MAX),
        }
    }
}

/// A buffered uniform-`f64` stream over the blessed seeded generator.
///
/// Draws are produced in 16-draw blocks from a SplitMix64-seeded
/// xoshiro256++ (`StdRng`) and handed out in order, so the value sequence
/// is exactly the sequence `rng.random::<f64>()` would produce call by
/// call — buffering changes *when* the generator steps, never *what* it
/// yields. Unconsumed buffered draws at end of run are simply dropped,
/// which no observer can distinguish from never having drawn them.
#[derive(Debug, Clone)]
pub struct BatchedF64 {
    rng: StdRng,
    buf: [f64; BATCH],
    /// Next unconsumed index into `buf`; `BATCH` means empty.
    pos: usize,
}

impl BatchedF64 {
    /// A batched stream head seeded with `seed` — the same SplitMix64
    /// expansion `StdRng::seed_from_u64` applies, so stream identity is
    /// preserved across the batching rewrite.
    pub fn new(seed: u64) -> Self {
        BatchedF64 {
            rng: StdRng::seed_from_u64(seed),
            buf: [0.0; BATCH],
            pos: BATCH,
        }
    }

    /// The next uniform draw in `[0, 1)` — bit-identical to what the
    /// unbatched `rng.random::<f64>()` at the same stream position
    /// returns.
    #[inline]
    pub fn draw(&mut self) -> f64 {
        if self.pos == BATCH {
            for slot in &mut self.buf {
                *slot = self.rng.random::<f64>();
            }
            self.pos = 0;
        }
        let value = self.buf[self.pos];
        self.pos += 1;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_draws_match_the_unbatched_stream() {
        let mut plain = StdRng::seed_from_u64(0xfeed);
        let mut batched = BatchedF64::new(0xfeed);
        for i in 0..1000 {
            let expect: f64 = plain.random();
            let got = batched.draw();
            assert!(
                got.to_bits() == expect.to_bits(),
                "draw {i}: batched {got} vs unbatched {expect}"
            );
        }
    }

    #[test]
    fn stopwatch_produces_monotone_stats() {
        let watch = Stopwatch::start();
        let stats = watch.stats(42);
        assert_eq!(stats.events, 42);
        // Wall time is environment-dependent; only sanity-check the type.
        let later = watch.stats(42);
        assert!(later.wall_nanos >= stats.wall_nanos);
    }
}

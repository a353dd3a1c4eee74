//! Order statistics and digests shared by every workload.

/// FNV-1a 64-bit offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit digest — the same hash
/// `run_serve_bench` and the sweep ledger use.
pub fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// A sample summary: the value plus how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The statistic.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`q` in (0, 1]) of `samples`, reordering them.
/// `None` for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let (_, nth, _) = samples.select_nth_unstable_by(rank(samples.len(), q) - 1, f64::total_cmp);
    Some(Summary {
        value: *nth,
        samples: samples.len(),
    })
}

/// Median of `values` (mean of the middle two for an even count),
/// reordering them. `None` for an empty sample.
pub fn median(values: &mut [f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let value = if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    };
    Some(Summary { value, samples: n })
}

/// The `q`-percentile of every whole chunk of `size` consecutive samples,
/// or of all of them when there is no whole chunk. A chunk covers a short
/// stretch of the run, so interference from outside the benchmark lands
/// in some chunks and not in others.
pub fn chunked<T: Copy + Into<f64>>(samples: &[T], size: usize, q: f64) -> Vec<f64> {
    let size = if samples.len() < size {
        samples.len()
    } else {
        size
    };
    samples
        .chunks_exact(size.max(1))
        .filter_map(|chunk| {
            let mut values: Vec<f64> = chunk.iter().map(|&v| v.into()).collect();
            percentile(&mut values, q).map(|p| p.value)
        })
        .collect()
}

/// The fast end of per-chunk times: their 1st percentile. On a shared host
/// the speed of this machine's virtual CPUs switches, within seconds,
/// between a quiet mode and contended ones up to 1.8 times slower, and the
/// share of contended time changes from minute to minute. Any central
/// statistic then follows the host. The quiet mode recurs often enough
/// that the fastest 1% of chunks sit in it in every run, and a chunk can
/// be no faster than the program allows. `None` for an empty sample.
pub fn fast_time(times: &mut [f64]) -> Option<Summary> {
    percentile(times, FAST)
}

/// The fast end of per-chunk rates: their 99th percentile. See
/// [`fast_time`].
pub fn fast_rate(rates: &mut [f64]) -> Option<Summary> {
    percentile(rates, 1.0 - FAST)
}

/// Share of chunks at or beyond the fast end.
const FAST: f64 = 0.01;

/// The fast decile of repeated set-up times, spread through the run. A run
/// sets up tens of times, not hundreds, so the fast end is the 10th
/// percentile; the reason is the one given at [`fast_time`].
pub fn fast_setup(times: &mut [f64]) -> Option<Summary> {
    percentile(times, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut []), None);
        let odd = median(&mut [3.0, 1.0, 2.0]).unwrap();
        assert_eq!((odd.value, odd.samples), (2.0, 3));
        let even = median(&mut [4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((even.value, even.samples), (2.5, 4));
    }

    #[test]
    fn percentile_is_nearest_rank_with_its_sample_count() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5).unwrap().value, 50.0);
        let p99 = percentile(&mut xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples), (99.0, 100));
        assert_eq!(percentile(&mut xs, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99).unwrap().value, 7.0);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn chunks_are_whole_and_in_order() {
        let samples: Vec<u32> = (0..205).collect();
        let p50 = chunked(&samples, 100, 0.5);
        assert_eq!(p50, vec![49.0, 149.0]);
        // Fewer samples than one chunk: they form a single chunk.
        assert_eq!(chunked(&samples[..10], 100, 1.0), vec![9.0]);
        assert!(chunked::<u32>(&[], 100, 0.5).is_empty());
    }

    #[test]
    fn fast_ends_pick_the_quick_one_percent() {
        let mut times: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(fast_time(&mut times).unwrap().value, 4.0);
        let mut rates = times.clone();
        let rate = fast_rate(&mut rates).unwrap();
        assert_eq!((rate.value, rate.samples), (396.0, 400));
        assert_eq!(fast_time(&mut []), None);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"fo"), b"o"),
            fnv1a(FNV_BASIS, b"foo")
        );
    }
}

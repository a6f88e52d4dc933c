//! Timing estimators chosen from measured host noise.
//!
//! Host contention on small shared VMs comes in phases: a fixed compute
//! kernel's medians swing by tens of percent over a minute while its
//! per-window minimum stays within a few percent. So the benchmark runs
//! the same work in several identical passes, times fixed chunks of each
//! pass, and sums the per-chunk minima ([`ChunkMin`]): an estimate of the
//! uncontended cost. A change that is slower only under contention does
//! not show in it. A threaded stage, whose work cannot be cut into chunks,
//! is one chunk per pass: its per-pass minimum.

use std::time::{Duration, Instant};

use crate::clock::Cost;

/// Per-chunk minima of wall and CPU time over identical passes.
///
/// Storage is allocated once in [`ChunkMin::new`]; recording never
/// allocates, so the estimator adds no heap traffic to a timed region.
#[derive(Debug, Clone)]
pub struct ChunkMin {
    min: Vec<Cost>,
    passes: u32,
}

impl ChunkMin {
    /// An estimator over `chunks` chunks per pass.
    pub fn new(chunks: usize) -> ChunkMin {
        ChunkMin {
            min: vec![
                Cost {
                    wall_ns: u64::MAX,
                    cpu_ns: u64::MAX,
                };
                chunks.max(1)
            ],
            passes: 0,
        }
    }

    /// Records chunk `chunk`'s cost in the current pass; wall and CPU
    /// minima are kept independently.
    pub fn record(&mut self, chunk: usize, cost: Cost) {
        let m = &mut self.min[chunk];
        m.wall_ns = m.wall_ns.min(cost.wall_ns);
        m.cpu_ns = m.cpu_ns.min(cost.cpu_ns);
    }

    /// Marks the end of one pass.
    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    /// Passes recorded.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Sum over chunks of each chunk's minimum (chunks never recorded
    /// count as zero).
    pub fn total(&self) -> Cost {
        self.total_of(0..self.min.len())
    }

    /// [`ChunkMin::total`] restricted to the chunks in `range`.
    pub fn total_of(&self, range: std::ops::Range<usize>) -> Cost {
        self.min[range].iter().fold(Cost::default(), |acc, m| Cost {
            wall_ns: acc.wall_ns + if m.wall_ns == u64::MAX { 0 } else { m.wall_ns },
            cpu_ns: acc.cpu_ns + if m.cpu_ns == u64::MAX { 0 } else { m.cpu_ns },
        })
    }
}

/// Runs `pass` at least `min_passes` times and then again while `budget`
/// (measured from the first call) lasts, up to `max_passes`. Returns the
/// number of passes run.
pub fn run_passes(
    budget: Duration,
    min_passes: u32,
    max_passes: u32,
    mut pass: impl FnMut(u32),
) -> u32 {
    let start = Instant::now();
    let mut n = 0;
    while n < min_passes || (n < max_passes && start.elapsed() < budget) {
        pass(n);
        n += 1;
    }
    n
}

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(wall_ns: u64, cpu_ns: u64) -> Cost {
        Cost { wall_ns, cpu_ns }
    }

    #[test]
    fn chunk_minima_are_summed_across_chunks() {
        let mut est = ChunkMin::new(3);
        // Pass 1 is contended in chunk 0, pass 2 in chunk 2.
        for (c, t) in [(0, 90), (1, 20), (2, 30)] {
            est.record(c, cost(t, t));
        }
        est.end_pass();
        for (c, t) in [(0, 10), (1, 25), (2, 70)] {
            est.record(c, cost(t, t));
        }
        est.end_pass();
        assert_eq!(est.total(), cost(10 + 20 + 30, 10 + 20 + 30));
        assert_eq!(est.passes(), 2);
    }

    #[test]
    fn wall_and_cpu_minima_are_independent() {
        let mut est = ChunkMin::new(1);
        est.record(0, cost(100, 5));
        est.record(0, cost(50, 9));
        assert_eq!(est.total(), cost(50, 5));
    }

    #[test]
    fn a_single_chunk_is_the_per_pass_minimum() {
        let mut est = ChunkMin::new(1);
        for t in [40, 31, 77, 35] {
            est.record(0, cost(t, t + 1));
            est.end_pass();
        }
        assert_eq!(est.total(), cost(31, 32));
    }

    #[test]
    fn the_estimate_ignores_a_contended_phase_in_any_one_pass() {
        // 8 chunks, 6 passes; each pass has one slow phase at a different
        // chunk. The sum of minima recovers the quiet cost exactly.
        let quiet = 1_000;
        let mut est = ChunkMin::new(8);
        for pass in 0..6 {
            for c in 0..8 {
                let t = if c == pass { quiet * 3 } else { quiet };
                est.record(c, cost(t, t));
            }
            est.end_pass();
        }
        assert_eq!(est.total().wall_ns, 8 * quiet);
    }

    #[test]
    fn a_chunk_range_sums_only_its_chunks() {
        let mut est = ChunkMin::new(3);
        for (c, t) in [(0, 1), (1, 10), (2, 100)] {
            est.record(c, cost(t, t));
        }
        assert_eq!(est.total_of(1..3), cost(110, 110));
        assert_eq!(est.total_of(0..1), cost(1, 1));
    }

    #[test]
    fn unrecorded_chunks_count_as_zero() {
        let mut est = ChunkMin::new(4);
        est.record(1, cost(7, 3));
        assert_eq!(est.total(), cost(7, 3));
    }

    #[test]
    fn run_passes_honours_the_minimum_and_the_cap() {
        assert_eq!(run_passes(Duration::ZERO, 3, 10, |_| {}), 3);
        assert_eq!(run_passes(Duration::from_secs(60), 1, 5, |_| {}), 5);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

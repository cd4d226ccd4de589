//! Offline stand-in for the subset of the `criterion` benchmarking API
//! this workspace uses: `Criterion::{default, sample_size,
//! bench_function, benchmark_group}`, `BenchmarkGroup::{bench_with_input,
//! finish}`, `BenchmarkId::from_parameter`, `Bencher::iter`, `black_box`,
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Instead of criterion's full statistical machinery it performs a short
//! warm-up, then times `sample_size` batches and reports the median
//! per-iteration latency on stdout. That is enough to compare hot-path
//! variants in this repository; absolute numbers carry no CI guarantees.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness is a stopwatch; its timings never reach report bytes"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one parameterized benchmark case.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Mirror of `BenchmarkId::from_parameter`.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId { text: parameter.to_string() }
    }

    /// Mirror of `BenchmarkId::new`.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId { text: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    /// Median per-iteration time of the last `iter` call.
    last_median: Duration,
}

impl Bencher {
    /// Times `routine`, storing the median per-iteration latency.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and batch-size calibration: grow the batch until one
        // batch costs ≥ ~1 ms (or a growth cap is hit) so Instant overhead
        // is amortized.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(1) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        self.iters_per_sample = iters;
        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            per_iter.push(t0.elapsed() / iters as u32);
        }
        per_iter.sort();
        self.last_median = per_iter[per_iter.len() / 2];
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut b =
            Bencher { iters_per_sample: 1, samples: self.sample_size, last_median: Duration::ZERO };
        f(&mut b);
        println!(
            "bench {label:<48} median {:>12.3?}  ({} iters/sample, {} samples)",
            b.last_median,
            b.iters_per_sample,
            b.samples.max(1)
        );
    }

    /// Mirror of `Criterion::bench_function`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name, f);
        self
    }

    /// Mirror of `Criterion::benchmark_group`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string() }
    }
}

/// A named group of related benchmark cases.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Mirror of `BenchmarkGroup::bench_with_input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.text);
        self.criterion.run_one(&label, |b| f(b, input));
        self
    }

    /// Mirror of `BenchmarkGroup::sample_size`.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Mirror of `BenchmarkGroup::finish` (a no-op here).
    pub fn finish(self) {}
}

/// Mirror of `criterion_group!` (both the simple and the `name = ...;
/// config = ...; targets = ...` forms).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
}

/// Mirror of `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

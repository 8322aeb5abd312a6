//! Offline shim for the `criterion` crate.
//!
//! Implements the subset of the criterion 0.5 API used by this workspace's
//! benches (`criterion_group!`/`criterion_main!`, benchmark groups,
//! `bench_function`, `bench_with_input`, `Bencher::iter`) with a simple
//! mean/min/max timing loop instead of criterion's statistical machinery.
//! Results print one line per benchmark; there is no HTML report. As in
//! criterion, the first command-line argument that is not a flag filters
//! the benchmarks by substring of `group/id` (`cargo bench -- sweep`): the
//! bench functions still run, but a benchmark whose id does not match is
//! neither timed nor printed.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A function name plus a parameter value, rendered `name/param`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// Only a parameter value.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Hint for how expensive a batch's setup value is (accepted for
/// criterion API compatibility; the shim times one batch per sample
/// regardless).
#[derive(Debug, Clone, Copy, Default)]
pub enum BatchSize {
    /// Small per-iteration input.
    #[default]
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Times closures handed to it by a benchmark function.
pub struct Bencher {
    samples: usize,
    results: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly (one warm-up call plus the configured sample
    /// count) and records one wall-clock duration per sample. As in
    /// upstream criterion, the routine's return value is dropped *outside*
    /// the timed region, so deallocating a large output does not pollute
    /// the measurement.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        std::hint::black_box(f()); // warm-up, untimed
        for _ in 0..self.samples {
            let t0 = Instant::now();
            let out = f();
            self.results.push(t0.elapsed());
            drop(std::hint::black_box(out));
        }
    }

    /// Like [`iter`](Self::iter), but `setup` runs outside the timed
    /// region — use it when per-iteration state (caches, buffers) must be
    /// rebuilt fresh without its construction polluting the measurement.
    /// The routine's output is likewise dropped untimed.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup())); // warm-up, untimed
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.results.push(t0.elapsed());
            drop(std::hint::black_box(out));
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn run_one(full_id: &str, filter: Option<&str>, samples: usize, f: impl FnOnce(&mut Bencher)) {
    if filter.is_some_and(|s| !full_id.contains(s)) {
        return;
    }
    let mut b = Bencher {
        samples,
        results: Vec::new(),
    };
    f(&mut b);
    if b.results.is_empty() {
        println!("{full_id:<40} (no samples)");
        return;
    }
    let total: Duration = b.results.iter().sum();
    let mean = total / b.results.len() as u32;
    let min = *b.results.iter().min().expect("non-empty");
    let max = *b.results.iter().max().expect("non-empty");
    println!(
        "{full_id:<40} time: [{} {} {}]",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max)
    );
}

/// A named set of related benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let full_id = format!("{}/{}", self.name, id.id);
        run_one(
            &full_id,
            self.criterion.filter.as_deref(),
            self.sample_size,
            f,
        );
        self
    }

    /// Runs one benchmark that borrows an input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (a no-op here; criterion computes summaries).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: None,
        }
    }
}

/// The benchmark-name filter among a bench binary's arguments (program
/// name excluded): the first one that is not a flag. `cargo bench -- sweep`
/// runs the binary with `--bench sweep`.
fn filter_of(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

impl Criterion {
    /// Sets the default number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Reads the benchmark-name filter from the command line
    /// ([`criterion_group!`] calls this on its configuration).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_of(std::env::args().skip(1));
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            sample_size: self.sample_size,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        run_one(&id.into().id, self.filter.as_deref(), self.sample_size, f);
        self
    }
}

/// Prevents the compiler from optimising a value away.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, optionally with a configured
/// [`Criterion`] instance.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("group");
        group.sample_size(3);
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("with", 4), &4u32, |b, &n| b.iter(|| n * 2));
        group.finish();
        c.bench_function("top_level", |b| b.iter(|| black_box(3) * 3));
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(2);
        targets = sample_bench
    }

    criterion_group!(benches_default, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
        benches_default();
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).id, "f/8");
        assert_eq!(BenchmarkId::from_parameter("p").id, "p");
        assert_eq!(BenchmarkId::from("s").id, "s");
    }

    #[test]
    fn the_filter_times_only_matching_ids() {
        assert_eq!(
            filter_of(["--bench".into(), "sweep".into()]),
            Some("sweep".into())
        );
        assert_eq!(filter_of(["--bench".to_string()]), None);

        let mut c = Criterion {
            sample_size: 1,
            filter: Some("sweep".into()),
        };
        let mut timed = Vec::new();
        let mut group = c.benchmark_group("sweep");
        group.bench_function("VF2/each", |b| {
            timed.push("sweep/VF2/each");
            b.iter(|| 1)
        });
        group.finish();
        let mut group = c.benchmark_group("pair");
        group.bench_function("VF2/iso", |b| {
            timed.push("pair/VF2/iso");
            b.iter(|| 2)
        });
        group.bench_with_input(BenchmarkId::new("sweep", 2), &2, |b, &n| {
            timed.push("pair/sweep/2");
            b.iter(|| n)
        });
        group.finish();
        c.bench_function("top_level", |b| {
            timed.push("top_level");
            b.iter(|| 3)
        });
        assert_eq!(timed, ["sweep/VF2/each", "pair/sweep/2"]);
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_nanos(5)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with(" s"));
    }
}

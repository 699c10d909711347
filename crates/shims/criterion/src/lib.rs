//! Offline shim for `criterion`: a small wall-clock benchmark harness
//! exposing the criterion API subset the workspace uses
//! (`benchmark_group`, `bench_function`, `bench_with_input`, `iter`,
//! `iter_batched`, `Throughput`, `criterion_group!`/`criterion_main!`).
//!
//! Unlike the real criterion it performs no statistical analysis: each
//! benchmark is warmed up, then timed over enough iterations to fill the
//! measurement window, and the **median of per-batch means** is reported.
//!
//! # Machine-readable output
//!
//! Every run appends one JSON object per benchmark to the file named by
//! the `BENCH_JSON` environment variable (default
//! `target/bench-results.json`, created fresh per process), and prints a
//! human-readable line per benchmark to stdout. The JSON schema is:
//!
//! ```json
//! {"group": "state_object", "name": "delta_kv_execute_rollback",
//!  "median_ns_per_iter": 123.4, "iters": 100000,
//!  "throughput_elems": null}
//! ```
//!
//! Downstream tooling (`BENCH_*.json` in the repo root) consumes exactly
//! this schema.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark group name.
    pub group: String,
    /// Benchmark id within the group.
    pub name: String,
    /// Median per-iteration time, nanoseconds.
    pub median_ns_per_iter: f64,
    /// Total timed iterations.
    pub iters: u64,
    /// Declared elements-per-iteration, if any.
    pub throughput_elems: Option<u64>,
}

thread_local! {
    static RESULTS: RefCell<Vec<BenchResult>> = const { RefCell::new(Vec::new()) };
}

/// Top-level harness handle (mirrors `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the target measurement window per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up window per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IdLike, f: F) {
        let cfg = self.clone();
        run_bench(&cfg, "", &id.render(), None, f);
    }
}

/// A benchmark id: either a plain string or `BenchmarkId::new(a, b)`.
pub trait IdLike {
    /// Renders the id as the flat name used in reports.
    fn render(&self) -> String;
}

impl IdLike for &str {
    fn render(&self) -> String {
        (*self).to_string()
    }
}

impl IdLike for String {
    fn render(&self) -> String {
        self.clone()
    }
}

/// A two-part benchmark id (mirrors `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }
}

impl IdLike for BenchmarkId {
    fn render(&self) -> String {
        format!("{}/{}", self.name, self.param)
    }
}

/// Declared work-per-iteration (mirrors `criterion::Throughput`).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batching hint (accepted for API compatibility; the shim sizes batches
/// by time).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One measured iteration per setup.
    PerIteration,
}

/// A named group of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work performed by one iteration.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(match t {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        });
    }

    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Overrides the measurement window for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measurement_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IdLike, f: F) {
        let cfg = self.criterion.clone();
        run_bench(&cfg, &self.name, &id.render(), self.throughput, f);
    }

    /// Runs one benchmark parameterised by an input value.
    pub fn bench_with_input<I, F>(&mut self, id: impl IdLike, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let cfg = self.criterion.clone();
        run_bench(&cfg, &self.name, &id.render(), self.throughput, |b| {
            f(b, input)
        });
    }

    /// Closes the group (no-op in the shim).
    pub fn finish(self) {}
}

/// The per-benchmark timing handle (mirrors `criterion::Bencher`).
pub struct Bencher {
    /// Iterations to run in this measurement batch.
    iters: u64,
    /// Time spent executing the routine in this batch.
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` for the batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs produced by `setup` (setup time is
    /// excluded from the measurement).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_once<F: FnMut(&mut Bencher)>(f: &mut F, iters: u64) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_bench<F: FnMut(&mut Bencher)>(
    cfg: &Criterion,
    group: &str,
    name: &str,
    throughput: Option<u64>,
    mut f: F,
) {
    // calibrate: grow the batch until one batch costs ≥ ~1ms (or the
    // warm-up window is exhausted), warming the code up along the way
    let warm_deadline = Instant::now() + cfg.warm_up_time;
    let mut iters = 1u64;
    loop {
        let d = run_once(&mut f, iters);
        if d >= Duration::from_millis(1) || Instant::now() >= warm_deadline {
            break;
        }
        iters = iters.saturating_mul(2);
    }

    let samples = cfg.sample_size.max(1);
    let per_sample = cfg.measurement_time / samples as u32;
    let mut medians: Vec<f64> = Vec::with_capacity(samples);
    let mut total_iters = 0u64;
    let deadline = Instant::now() + cfg.measurement_time;
    for _ in 0..samples {
        let d = run_once(&mut f, iters);
        total_iters += iters;
        medians.push(d.as_nanos() as f64 / iters as f64);
        if Instant::now() >= deadline && !medians.is_empty() {
            break;
        }
        // keep each sample roughly within its time slot
        if d < per_sample / 4 {
            iters = iters.saturating_mul(2);
        }
    }
    medians.sort_by(|a, b| a.total_cmp(b));
    let median = medians[medians.len() / 2];

    let result = BenchResult {
        group: group.to_string(),
        name: name.to_string(),
        median_ns_per_iter: median,
        iters: total_iters,
        throughput_elems: throughput,
    };
    let label = if group.is_empty() {
        result.name.clone()
    } else {
        format!("{}/{}", result.group, result.name)
    };
    println!("bench: {label:<55} {median:>14.1} ns/iter");
    RESULTS.with(|r| r.borrow_mut().push(result));
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes all recorded results as a JSON array to the `BENCH_JSON` file
/// (default `target/bench-results.json`) and clears the record. Called
/// automatically by `criterion_main!`.
pub fn write_json_report() {
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "target/bench-results.json".into());
    let results = RESULTS.with(|r| r.borrow_mut().split_off(0));
    if results.is_empty() {
        return;
    }
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"iters\": {}, \"throughput_elems\": {}}}{}\n",
            json_escape(&r.group),
            json_escape(&r.name),
            r.median_ns_per_iter,
            r.iters,
            r.throughput_elems
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".into()),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(&path).and_then(|mut fh| fh.write_all(out.as_bytes())) {
        Ok(()) => eprintln!("bench: wrote {path}"),
        Err(e) => eprintln!("bench: could not write {path}: {e}"),
    }
}

/// Bundles benchmark functions under one group entry point (mirrors
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $($target(&mut c);)+
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

/// Generates `main` running the given groups and writing the JSON
/// report (mirrors `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags like `--bench`; ignore them
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(10));
        g.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
        RESULTS.with(|r| {
            let r = r.borrow();
            assert!(r
                .iter()
                .any(|x| x.name == "spin" && x.median_ns_per_iter > 0.0));
            assert!(r.iter().any(|x| x.name == "batched"));
        });
    }
}

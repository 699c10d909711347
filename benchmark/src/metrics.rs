//! The metric tables (`BENCHMARK.json` is generated from them) and the
//! computation of every metric an end-to-end run yields.

use crate::driver::{Outcome, Record};
use crate::run::EndToEnd;
use crate::stats::{median, percentile, tail};
use crate::workload::{Kind, Op, WORKLOADS};
use bayou_types::Level;
use std::fmt::Write as _;

/// Seconds one measured run lasts; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// A run is `--seconds / ROUND_SECONDS` rounds, each against a fresh
/// server, and reports the median over its rounds: the server slows as
/// its history grows (a closed loop answers 8 500 ops in its first
/// second and 2 500 in its tenth), so one long round would measure
/// mostly its own length, and a stall in one round moves no median.
pub const ROUND_SECONDS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the server would see. `bound`
/// is the share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEndDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ok_per_s", "1/s", Better::Higher, 0.25),
    e2e("weak_p50_us", "us", Better::Lower, 0.25),
    e2e("strong_p50_us", "us", Better::Lower, 0.25),
    e2e("strong_read_p50_us", "us", Better::Lower, 0.25),
    e2e("strong_write_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// A single layer's metric; no bound.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics an end-to-end run yields by itself.
pub const FROM_RUN: [LayerDef; 19] = [
    layer("server.answered_per_s", "1/s", Better::Higher),
    layer("server.weak_mean_us", "us", Better::Lower),
    layer("server.strong_mean_us", "us", Better::Lower),
    layer("server.weak_p99_us", "us", Better::Lower),
    layer("server.strong_p99_us", "us", Better::Lower),
    layer("server.failed_share", "ratio", Better::Lower),
    layer("server.busy_share", "ratio", Better::Lower),
    layer("server.err_share", "ratio", Better::Lower),
    layer("server.retry_share", "ratio", Better::Lower),
    layer("server.shed_count", "count", Better::Lower),
    layer("server.strong_read_p99_us", "us", Better::Lower),
    layer("server.strong_write_p99_us", "us", Better::Lower),
    layer("server.weak_p99_drift", "ratio", Better::Lower),
    layer("server.crash_outage_ms", "ms", Better::Lower),
    layer("server.restart_blip_ms", "ms", Better::Lower),
    layer("storage.disk_bytes_per_op", "B", Better::Lower),
    layer("storage.snapshot_bytes", "B", Better::Lower),
    layer("storage.wal_segments", "count", Better::Lower),
    layer("bench.late_max_ms", "ms", Better::Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the number rests on, for the human-readable line.
    pub note: String,
}

/// The metrics of a round plus the counts the result line carries.
pub struct RunMetrics {
    pub end_to_end: Vec<Measured>,
    pub per_layer: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics that could not be computed (a class with no `Ok` reply).
    pub missing: Vec<&'static str>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(FROM_RUN.iter().map(|d| (d.name, d.unit)))
        .chain(crate::ladder::FROM_LADDER.iter().map(|d| (d.name, d.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
}

pub fn measured(name: &'static str, value: f64, note: String) -> Measured {
    Measured {
        name,
        value,
        unit: unit_of(name),
        note,
    }
}

/// `Ok` latencies, ascending, of the records that pass `keep`.
fn latencies<'a>(
    records: impl Iterator<Item = (&'a Op, &'a Record)>,
    keep: impl Fn(&Op) -> bool,
) -> Vec<u64> {
    let mut out: Vec<u64> = records
        .filter(|(op, _)| keep(op))
        .filter_map(|(_, rec)| rec.latency_ns())
        .collect();
    out.sort_unstable();
    out
}

/// Resident-set high-water mark of this process, server included, when
/// called: the run reports it as of the end of its first round.
pub fn peak_rss_mb() -> Measured {
    let mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0);
    measured(
        "peak_rss_mb",
        mb,
        "VmHWM of the benchmark process after its first round".into(),
    )
}

/// The median of every metric over a run's rounds, in the first
/// round's order.
pub fn over_rounds(rounds: &[Vec<Measured>]) -> Vec<Measured> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|m| {
            let mut values: Vec<f64> = rounds
                .iter()
                .flatten()
                .filter(|x| x.name == m.name)
                .map(|x| x.value)
                .collect();
            let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let note = format!("{}; median of rounds {}", m.note, each.join(" "));
            measured(m.name, median(&mut values), note)
        })
        .collect()
}

/// Median over the fault cycles of the longest strong latency among
/// operations due within 500 ms after each fault instant.
fn worst_after(run: &EndToEnd, instants: impl Iterator<Item = u64>) -> f64 {
    let mut worst: Vec<f64> = instants
        .map(|at| {
            run.all()
                .filter(|(op, rec)| {
                    op.level == Level::Strong && (at..at + 500_000_000).contains(&rec.from_ns)
                })
                .filter_map(|(_, rec)| rec.latency_ns())
                .max()
                .unwrap_or(0) as f64
                / 1e6
        })
        .collect();
    if worst.is_empty() {
        0.0
    } else {
        median(&mut worst)
    }
}

/// Computes every metric a round supports (all but `peak_rss_mb`).
pub fn of_run(run: &EndToEnd) -> RunMetrics {
    let mut m = RunMetrics {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted: 0,
        failed: 0,
        missing: Vec::new(),
    };
    let strong = |op: &Op| op.level == Level::Strong;
    let weak = latencies(run.all(), |op| op.level == Level::Weak);
    let strong_all = latencies(run.all(), strong);
    let strong_reads = latencies(run.all(), |op| strong(op) && op.kind == Kind::Get);
    let strong_writes = latencies(run.all(), |op| strong(op) && op.kind == Kind::Put);

    m.end_to_end.push(measured(
        "setup_s",
        run.setup_s,
        "server start + connect + warm-up".into(),
    ));

    let oks = run.all().filter(|(_, r)| r.latency_ns().is_some()).count();
    let span_s = run.committed_ns as f64 / 1e9;
    m.end_to_end.push(measured(
        "ok_per_s",
        if span_s > 0.0 {
            oks as f64 / span_s
        } else {
            0.0
        },
        format!("{oks} ok, all committed {span_s:.3} s after the start"),
    ));
    let answered_s = run.all().map(|(_, r)| r.done_ns).max().unwrap_or(0) as f64 / 1e9;
    m.per_layer.push(measured(
        "server.answered_per_s",
        if answered_s > 0.0 {
            oks as f64 / answered_s
        } else {
            0.0
        },
        format!("last reply {answered_s:.3} s after the start"),
    ));

    // medians are end to end; the tails repeat too badly from run to
    // run to carry a bound, so they are reported as the server's own
    let (mut medians, mut server_side) = (Vec::new(), Vec::new());
    for (p50, p99, mean, sorted) in [
        (
            "weak_p50_us",
            "server.weak_p99_us",
            Some("server.weak_mean_us"),
            &weak,
        ),
        (
            "strong_p50_us",
            "server.strong_p99_us",
            Some("server.strong_mean_us"),
            &strong_all,
        ),
        (
            "strong_read_p50_us",
            "server.strong_read_p99_us",
            None,
            &strong_reads,
        ),
        (
            "strong_write_p50_us",
            "server.strong_write_p99_us",
            None,
            &strong_writes,
        ),
    ] {
        let n = sorted.len();
        if n == 0 {
            m.missing.push(p50);
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let (median_ns, (pct, tail_ns)) = match n {
            0 => (0, (99.0, 0)),
            _ => (percentile(sorted, 50.0), tail(sorted)),
        };
        medians.push(measured(p50, us(median_ns), format!("p50 of {n} samples")));
        server_side.push(measured(
            p99,
            us(tail_ns),
            format!("p{pct:.4} of {n} samples"),
        ));
        if let Some(mean) = mean {
            let sum: u64 = sorted.iter().sum();
            let value = us(sum) / n.max(1) as f64;
            server_side.push(measured(mean, value, format!("mean of {n} samples")));
        }
    }
    m.end_to_end.extend(medians);

    // failures, against the number attempted
    let (mut busy, mut retry, mut errs, mut failed, mut attempted) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (_, rec) in run.all() {
        attempted += 1;
        errs += u64::from(rec.errs);
        busy += u64::from(rec.busies);
        retry += u64::from(rec.outcome == Outcome::Retry);
        failed += u64::from(!matches!(rec.outcome, Outcome::Ok(_)));
    }
    m.attempted = attempted;
    m.failed = failed;
    let share = |count: u64| count as f64 / attempted.max(1) as f64;
    let counted = |name, value: f64, what: &str| measured(name, value, what.to_string());
    m.per_layer.extend([
        counted(
            "server.failed_share",
            share(failed),
            &format!("{failed} of {attempted} ended other than Ok"),
        ),
        counted(
            "server.busy_share",
            share(busy),
            "Busy replies per operation",
        ),
        counted("server.err_share", share(errs), "Err replies per operation"),
        counted(
            "server.retry_share",
            share(retry),
            "Retry replies per operation",
        ),
        counted(
            "server.shed_count",
            run.shed_count as f64,
            "Server::shed_count",
        ),
    ]);
    m.per_layer.extend(server_side);

    // drift: the weak tail of the last quarter of each connection's
    // stream over that of the first quarter
    let weak_of = |from, to| latencies(run.part(from, to), |op| op.level == Level::Weak);
    let (head, end) = (weak_of(0.0, 0.25), weak_of(0.75, 1.0));
    m.per_layer.push(if head.is_empty() || end.is_empty() {
        counted("server.weak_p99_drift", 0.0, "no weak operations")
    } else {
        let (a, b) = (tail(&head), tail(&end));
        counted(
            "server.weak_p99_drift",
            b.1 as f64 / a.1.max(1) as f64,
            &format!("p{:.2} last quarter / first quarter", a.0),
        )
    });
    m.per_layer.extend([
        counted(
            "server.crash_outage_ms",
            worst_after(run, run.faults.iter().map(|f| f.0)),
            "median over the crashes of the worst strong latency due <= 500 ms after",
        ),
        counted(
            "server.restart_blip_ms",
            worst_after(run, run.faults.iter().map(|f| f.1)),
            "median over the restarts of the worst strong latency due <= 500 ms after",
        ),
        counted(
            "storage.disk_bytes_per_op",
            run.disk.total_bytes as f64 / attempted.max(1) as f64,
            "data-dir bytes after stop, three replicas, per operation",
        ),
        counted(
            "storage.snapshot_bytes",
            run.disk.snapshot_bytes as f64 / run.finals.len().max(1) as f64,
            "mean per replica",
        ),
        counted(
            "storage.wal_segments",
            run.disk.wal_segments as f64 / run.finals.len().max(1) as f64,
            "mean per replica",
        ),
        counted(
            "bench.late_max_ms",
            run.logs.iter().map(|l| l.late_max_ns).max().unwrap_or(0) as f64 / 1e6,
            "longest the open-loop generator sent after a due time",
        ),
    ]);
    m
}

/// The `name value unit` lines.
pub fn human(list: &[Measured]) -> String {
    let mut out = String::new();
    for x in list {
        let _ = writeln!(out, "{} {} {}    # {}", x.name, x.value, x.unit, x.note);
    }
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_object(list: &[Measured]) -> String {
    let fields: Vec<String> = list
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.word()),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = FROM_RUN
        .iter()
        .chain(crate::ladder::FROM_LADDER.iter())
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.word())
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for d in &END_TO_END {
            assert!(name_ok(d.name) && unit_ok(d.unit), "{}", d.name);
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
            names.push(d.name);
        }
        let layers: Vec<&LayerDef> = FROM_RUN
            .iter()
            .chain(crate::ladder::FROM_LADDER.iter())
            .collect();
        assert!((1..=128).contains(&layers.len()));
        for d in layers {
            assert!(name_ok(d.name) && unit_ok(d.unit), "{}", d.name);
            names.push(d.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}

//! `bayou-benchmark`: five serving workloads, in rounds against a fresh
//! 3-replica server on files over loopback TCP, a correctness gate over
//! the client-observed history, and a traced ladder that attributes
//! latency to crates. See `README.md` beside this package.

mod compare;
mod driver;
mod gate;
mod ladder;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use metrics::{Measured, ROUND_SECONDS, RUN_SECONDS};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bayou-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <file>]
  bayou-benchmark run --smoke [--seed <n>]
  bayou-benchmark compare <a.jsonl> <b.jsonl>
  bayou-benchmark describe";

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}")),
        }
    }
}

/// One run of one workload, `tenths` tenths of a second long: rounds of
/// [`ROUND_SECONDS`], each against a fresh server and with operations of
/// its own, and the median of every metric over them. A traced run is
/// one round and then the ladder on that round's operations. Prints
/// every metric, then the result line; returns whether the run was
/// correct.
fn run_one(
    spec: &'static workload::Spec,
    seed: u64,
    tenths: u64,
    traced: bool,
    out: Option<&str>,
) -> std::io::Result<bool> {
    let rounds = if traced {
        1
    } else {
        (tenths / (ROUND_SECONDS * 10)).max(1)
    };
    let round_tenths = if traced {
        tenths.min(ROUND_SECONDS * 10)
    } else {
        tenths / rounds
    };
    let (mut end_to_end, mut per_layer) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut violations: Vec<String> = Vec::new();
    let mut ladder = Vec::new();
    let mut peak_rss = None;
    for round in 0..rounds {
        let params = run::Params {
            spec,
            // a hundred rounds' seeds of their own per `--seed`
            seed: seed.wrapping_mul(100).wrapping_add(round),
            tenths: round_tenths,
            traced,
            replicas: run::Replicas::Files,
            faults: true,
        };
        let e2e = run::run(params)?;
        // of the first round: what later rounds add to the high-water
        // mark is how the allocator reuses what earlier ones freed
        peak_rss.get_or_insert_with(metrics::peak_rss_mb);
        let m = metrics::of_run(&e2e);
        let said = |v: String| format!("round {round}: {v}");
        violations.extend(gate::check(&e2e).into_iter().map(said));
        violations.extend(
            m.missing
                .iter()
                .map(|n| said(format!("no Ok sample for {n}"))),
        );
        attempted += m.attempted;
        failed += m.failed;
        if traced {
            match ladder::climb(params, &e2e, &m.end_to_end) {
                Ok(rungs) => ladder = rungs,
                Err(e) => violations.push(format!("ladder: {e}")),
            }
        }
        if let Some(dir) = &e2e.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        end_to_end.push(m.end_to_end);
        per_layer.push(m.per_layer);
    }
    let mut end_to_end = metrics::over_rounds(&end_to_end);
    end_to_end.extend(peak_rss);
    let mut per_layer = metrics::over_rounds(&per_layer);
    per_layer.extend(ladder);

    println!(
        "# {} seed {seed}, {rounds} rounds of {} s, traced {traced}",
        spec.name,
        round_tenths as f64 / 10.0
    );
    print!("{}", metrics::human(&end_to_end));
    print!("{}", metrics::human(&per_layer));
    for v in &violations {
        println!("VIOLATED: {v}");
    }
    let correct = violations.is_empty();
    let reported: &[Measured] = if traced { &per_layer } else { &end_to_end };
    let body = format!(
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}",
        metrics::json_object(reported)
    );
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let violated: Vec<String> = violations.iter().map(|v| metrics::json_str(v)).collect();
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, {body}, \"violated\": [{}]}}",
            spec.name,
            u8::from(traced),
            violated.join(", ")
        )?;
    }
    println!("{{{body}}}");
    Ok(correct)
}

fn run_command(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", 1)?;
    let io = |e: std::io::Error| format!("run failed: {e}");
    std::fs::create_dir_all(run::out_dir()).map_err(io)?;
    if args.has("--smoke") {
        // all five at a tenth of the length (one short round), gate on
        let mut all = true;
        for spec in &workload::WORKLOADS {
            all &= run_one(spec, seed, RUN_SECONDS, false, None).map_err(io)?;
        }
        return Ok(all);
    }
    let name = args
        .value("--workload")
        .ok_or("run needs --workload or --smoke")?;
    let spec = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; there are {}", known.join(", "))
    })?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    // `--trace` alone means on; the driver passes 0 or 1 after it
    let traced = args.has("--trace") && args.value("--trace") != Some("0");
    run_one(spec, seed, seconds * 10, traced, args.value("--out")).map_err(io)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => run_command(&args),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("describe") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

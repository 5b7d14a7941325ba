//! `perfbench` — the end-to-end benchmark for both paths of `goc`: Levin
//! settles in process and session fleets through `goc-serve`.
//!
//! ```text
//! perfbench --workload settle-vm|settle-cached|serve-migrate
//!           --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out-dir DIR] [--inject-mismatch]
//! ```
//!
//! Prints the host record, the workload's metrics by name and unit, and as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). `--inject-mismatch` corrupts one outcome before the checks
//! run, so a test can see that a wrong outcome is counted as a failure.
//! With `--setup-only` it runs only the workload's set-up and prints
//! `setup_s <seconds>`; `setup_s` is the median over such runs, each in a
//! fresh process. See `perfbench/NOTES.md` for the workloads and metrics.

mod common;
mod serve;
mod settle;
mod trace;

use common::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload settle-vm|settle-cached|serve-migrate \
--seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR] [--inject-mismatch]";

/// Set-up runs, each in a fresh process so that it pays the cold costs;
/// `setup_s` is their median. Half run before the measured run and half
/// after it, so that one run's `setup_s` samples the host over the whole
/// run rather than in one phase of it.
const SETUP_RUNS: usize = 24;

/// The end-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. An operation is a conquest on settle-* and a session on
/// serve-*; NOTES.md maps these onto the per-path names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// order, as `(name, unit)`; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("cpu_us_per_op", "us"),
    ("vm.candidate_ns", "ns/op"),
    ("vm.candidate_steps", "count/op"),
    ("vm.candidate_ns_per_step", "ns"),
    ("enumerate.ns", "ns/op"),
    ("enumerate.candidates", "count/op"),
    ("universal.self_ns", "ns/op"),
    ("universal.switches", "count/op"),
    ("universal.lookahead.refills", "count/op"),
    ("exec.self_ns", "ns/op"),
    ("exec.rounds", "count/op"),
    ("sensing.ns", "ns/op"),
    ("toy.world_server_ns", "ns/op"),
    ("vm.cache.hit", "count/op"),
    ("vm.cache.miss", "count/op"),
    ("vm.cache.hit_ratio", "ratio"),
    ("vm.cache.evict", "count/op"),
    ("vm.cache.entries_peak", "count"),
    ("vm.prewarm.jobs", "count/op"),
    ("vm.prewarm.hits", "count/op"),
    ("vm.prewarm.fixedpoint", "count/op"),
    ("vm.prewarm.useful_ratio", "ratio"),
    ("par.pool.jobs", "count/op"),
    ("par.pool.spawned", "count/op"),
    ("par.pool.discarded", "count/op"),
    ("vm.arena.reuse_ratio", "ratio"),
    ("wire.encode_ns.open", "ns"),
    ("wire.decode_ns.open", "ns"),
    ("wire.bytes.open", "bytes"),
    ("wire.encode_ns.drive", "ns"),
    ("wire.decode_ns.drive", "ns"),
    ("wire.bytes.drive", "bytes"),
    ("wire.encode_ns.snap", "ns"),
    ("wire.decode_ns.snap", "ns"),
    ("wire.bytes.snap", "bytes"),
    ("wire.encode_ns.restore", "ns"),
    ("wire.decode_ns.restore", "ns"),
    ("wire.bytes.restore", "bytes"),
    ("wire.encode_ns.close", "ns"),
    ("wire.decode_ns.close", "ns"),
    ("wire.bytes.close", "bytes"),
    ("wire.encode_ns.status", "ns"),
    ("wire.decode_ns.status", "ns"),
    ("wire.bytes.status", "bytes"),
    ("wire.encode_ns.snapdata", "ns"),
    ("wire.decode_ns.snapdata", "ns"),
    ("wire.bytes.snapdata", "bytes"),
    ("wire.encode_ns.closed", "ns"),
    ("wire.decode_ns.closed", "ns"),
    ("wire.bytes.closed", "bytes"),
    ("session.build_ns", "ns"),
    ("session.drive_ns", "ns"),
    ("snap.save_ns", "ns"),
    ("snap.restore_ns", "ns"),
    ("snap.bytes", "bytes"),
    ("daemon.overhead_ns", "ns"),
    ("daemon.requests", "count"),
    ("daemon.errors", "count"),
    ("daemon.opened", "count"),
    ("daemon.closed", "count"),
    ("drive_ms_p50", "ms"),
    ("drive_ms_p99", "ms"),
    ("session_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Puts `metrics` in the canonical order of `table`, reading a metric the
/// workload did not produce as 0.
fn canonical(metrics: &[Metric], table: &[(&str, &'static str)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|(m, _, _)| m == name)
                .map_or(0.0, |m| m.1);
            common::metric(name, value, unit)
        })
        .collect()
}

/// Removes every `GOC_*` variable from this process's environment (the
/// daemon and the set-up runs inherit the scrubbed environment) and returns
/// their names: the benchmark measures the production configuration, never
/// a knob.
fn scrub_knobs() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GOC_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

/// Runs this program with `args` and `--setup-only` `runs` times and adds
/// each set-up time to `samples`.
fn time_set_ups(args: &[String], runs: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for _ in 0..runs {
        let out = Command::new(&exe)
            .args(args)
            .arg("--setup-only")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let seconds = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match seconds {
            Some(s) if out.status.success() => samples.push(s),
            _ => return Err(format!("set-up run failed ({})", out.status)),
        }
    }
    Ok(())
}

enum Workload {
    Settle(settle::Kind),
    Serve,
}

fn main() -> ExitCode {
    let start = Instant::now();
    let stripped = scrub_knobs();
    let host = common::Host::at_start(stripped.clone());
    if !stripped.is_empty() {
        eprintln!("perfbench: ignoring knob variables {}", stripped.join(", "));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |k: &str| {
        args.iter()
            .position(|a| a == k)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        flag("--trace").filter(|t| t == "0" || t == "1"),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let workload = match name.as_str() {
        "settle-vm" => Workload::Settle(settle::Kind::Vm),
        "settle-cached" => Workload::Settle(settle::Kind::Cached),
        "serve-migrate" => Workload::Serve,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let serve_bin = flag("--serve-bin");
    if matches!(workload, Workload::Serve) && serve_bin.is_none() {
        eprintln!("perfbench: {name} needs --serve-bin");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(flag("--out-dir").unwrap_or_else(|| ".bench_out".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let traced = trace == "1";
    let serve_args = serve::Args {
        seed,
        seconds,
        traced,
        inject_mismatch: args.iter().any(|a| a == "--inject-mismatch"),
        serve_bin: Path::new(serve_bin.as_deref().unwrap_or_default()),
        out_dir: &out_dir,
    };

    if args.iter().any(|a| a == "--setup-only") {
        let seconds = match workload {
            Workload::Settle(kind) => {
                settle::set_up(kind);
                Ok(start.elapsed().as_secs_f64())
            }
            Workload::Serve => serve::time_set_up(&serve_args, start),
        };
        return match seconds {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {name} set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The traced run reports no set-up time.
    let set_up_runs = if traced { 0 } else { SETUP_RUNS / 2 };
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    if let Err(e) = time_set_ups(&args, set_up_runs, &mut setup) {
        eprintln!("perfbench: {name}: {e}");
        return ExitCode::FAILURE;
    }

    let spans = out_dir.join(format!("spans-{name}-{seed}.jsonl"));
    let _ = std::fs::remove_file(&spans);
    trace::set_output(spans);
    let outcome = match workload {
        Workload::Settle(kind) => Ok(settle::run(
            kind,
            seed,
            seconds,
            traced,
            serve_args.inject_mismatch,
        )),
        Workload::Serve => serve::run(&serve_args),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = time_set_ups(&args, set_up_runs, &mut setup) {
        eprintln!("perfbench: {name}: {e}");
        return ExitCode::FAILURE;
    }
    if !traced {
        let setup = common::metric("setup_s", common::median(&setup), "s");
        outcome.metrics.push(setup.clone());
        outcome.display.insert(0, setup);
    }
    outcome.metrics = if traced {
        canonical(&outcome.metrics, &PER_LAYER)
    } else {
        canonical(&outcome.metrics, &END_TO_END)
    };
    println!("host {}", host.to_json());
    for (metric, value, unit) in &outcome.display {
        println!("{name} {metric} = {value} {unit}");
    }
    println!("{}", common::result_line(&outcome));
    ExitCode::SUCCESS
}

//! Measurement plumbing shared by the workloads: percentiles, `/proc`
//! readers, the host record, the seeded input generator and the result
//! line.

use std::time::Instant;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Linear-interpolation percentile (`p` in 0..=1) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() - 1) as f64 * p;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// The kernel's `USER_HZ`, the unit of `utime`/`stime` in `/proc/*/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User+system CPU seconds consumed so far by process `pid` ("self" for
/// this process), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn load_average() -> String {
    read_trimmed("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The host a result was measured on, recorded with every result.
pub struct Host {
    load_start: String,
    stripped_env: Vec<String>,
}

impl Host {
    pub fn at_start(stripped_env: Vec<String>) -> Host {
        Host {
            load_start: load_average(),
            stripped_env,
        }
    }

    /// One JSON object: nproc, load average at start and end, ASLR state,
    /// kernel, compiler and commit (the latter two are passed in by the
    /// launcher, which has them at hand).
    pub fn to_json(&self) -> String {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        format!(
            "{{\"nproc\":{},\"loadavg_start\":\"{}\",\"loadavg_end\":\"{}\",\"aslr\":\"{}\",\
\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"stripped_env\":[{}]}}",
            nproc(),
            self.load_start,
            load_average(),
            read_trimmed("/proc/sys/kernel/randomize_va_space"),
            json_escape(&read_trimmed("/proc/sys/kernel/osrelease")),
            json_escape(&env("PERFBENCH_RUSTC")),
            json_escape(&env("PERFBENCH_COMMIT")),
            self.stripped_env
                .iter()
                .map(|k| format!("\"{}\"", json_escape(k)))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Seeded input generator (splitmix64): the same seed gives the same
/// inputs on every host.
#[derive(Clone)]
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64) -> Draw {
        Draw(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a workload run returns.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that ran (a run whose checks could not run is not correct).
    pub checks_ran: bool,
    pub metrics: Vec<Metric>,
    /// Per-path metrics (`settle_ms_p50`, `session_ms_p99`, ...) printed for
    /// people on readable lines, not part of the result line.
    pub display: Vec<Metric>,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.checks_ran && o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Measurement windows per run. Every timed metric is computed per window
/// and reported as the median over windows: interference from other work
/// on a shared host comes in bursts of a second or so, and a burst then
/// moves one window's value instead of the run's.
pub const WINDOWS: u32 = 10;

/// CPU-time samples of one process at window boundaries.
pub struct CpuClock {
    pid: String,
    pub marks: Vec<(Instant, f64)>,
}

impl CpuClock {
    pub fn new(pid: &str) -> CpuClock {
        let mut c = CpuClock {
            pid: pid.to_string(),
            marks: Vec::new(),
        };
        c.mark();
        c
    }

    pub fn mark(&mut self) {
        let cpu = cpu_seconds(&self.pid).unwrap_or(0.0);
        self.marks.push((Instant::now(), cpu));
    }
}

/// Windowed latency, CPU and throughput of operations given as
/// `(completion time, wall ms)`: per window between consecutive CPU marks,
/// p50, p90, CPU µs per operation and operations per second, each reported
/// as the median over windows that completed at least one operation.
pub struct Windowed {
    pub p50: f64,
    pub p90: f64,
    pub cpu_us_per_op: f64,
    pub ops_per_s: f64,
}

pub fn windowed(ops: &[(Instant, f64)], clock: &CpuClock) -> Windowed {
    let (mut p50, mut p90, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let whole = [clock.marks[0], clock.marks[clock.marks.len() - 1]];
    for span in [&clock.marks[..], &whole[..]] {
        for w in span.windows(2) {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let walls = sorted(
                ops.iter()
                    .filter(|(done, _)| *done >= t0 && *done < t1)
                    .map(|&(_, ms)| ms)
                    .collect(),
            );
            if walls.is_empty() {
                continue;
            }
            let n = walls.len() as f64;
            p50.push(percentile(&walls, 0.5));
            p90.push(percentile(&walls, 0.9));
            cpu.push((c1 - c0) * 1e6 / n);
            rate.push(n / (t1 - t0).as_secs_f64());
        }
        // A run too short to complete an operation in any window falls
        // back to one window spanning the whole run.
        if !p50.is_empty() {
            break;
        }
    }
    Windowed {
        p50: median(&p50),
        p90: median(&p90),
        cpu_us_per_op: median(&cpu),
        ops_per_s: median(&rate),
    }
}

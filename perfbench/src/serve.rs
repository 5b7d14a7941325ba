//! The daemon path (serve-migrate): session fleets driven through
//! `goc-serve` over a Unix socket.
//!
//! The daemon runs as its own process with one shard per core; the load
//! comes from this process, one blocking client thread and one connection
//! per core. Each session is opened, driven part-way, snapshotted, closed,
//! restored under an id that routes to another shard, and driven on to a
//! long horizon. Every session's final status becomes an outcome line that
//! must equal, byte for byte, the same `(scenario, seed, horizon)` run
//! uninterrupted in process through `goc_serve::Session`.

use crate::common::{self, metric, CpuClock, Draw, Metric, Outcome};
use crate::trace::{self, Layer};
use goc_serve::session::{session_seed, Session};
use goc_serve::wire::{self, Frame};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The sessions' scenario, rounds per `Drive`, where a session is
/// snapshotted, and the horizon it is finally driven to.
const SCENARIO: &str = "magic-compact";
const QUANTUM: u64 = 64;
const SNAP_AT: u64 = 128;
const HORIZON: u64 = 1024;

/// Session indices of the set-up's warm-up sessions, far from the
/// measured ones.
const WARM_UP_INDEX: u64 = 1 << 40;

/// How long to wait for the daemon to start, answer, or exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);

const FRAME_TYPES: [&str; 8] = [
    "open", "drive", "snap", "restore", "close", "status", "snapdata", "closed",
];

fn frame_type(f: &Frame) -> &'static str {
    match f {
        Frame::Open { .. } => "open",
        Frame::Drive { .. } => "drive",
        Frame::Snap { .. } => "snap",
        Frame::Restore { .. } => "restore",
        Frame::Close { .. } => "close",
        Frame::Status { .. } => "status",
        Frame::SnapData { .. } => "snapdata",
        Frame::Closed { .. } => "closed",
        Frame::Shutdown => "shutdown",
        Frame::Error { .. } => "error",
        Frame::Bye => "bye",
    }
}

// ---------------------------------------------------------------------------
// The daemon process
// ---------------------------------------------------------------------------

struct Daemon {
    child: Child,
    pid: String,
    socket: PathBuf,
    stderr: Option<std::thread::JoinHandle<String>>,
    /// Requests sent to this daemon instance (for the teardown check).
    requests: u64,
    opened: u64,
    closed: u64,
}

/// The daemon's teardown line: `goc-serve: N opened, N closed, N requests,
/// N errors, N chaos-dropped`.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonStats {
    opened: u64,
    closed: u64,
    requests: u64,
    errors: u64,
}

fn parse_stats(stderr: &str) -> Option<DaemonStats> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("goc-serve:") && l.contains(" opened, "))?;
    let nums: Vec<u64> = line
        .trim_start_matches("goc-serve:")
        .split(',')
        .filter_map(|part| part.split_whitespace().next()?.parse().ok())
        .collect();
    Some(DaemonStats {
        opened: *nums.first()?,
        closed: *nums.get(1)?,
        requests: *nums.get(2)?,
        errors: *nums.get(3)?,
    })
}

fn spawn_daemon(bin: &Path, socket: &Path, shards: usize) -> Result<Daemon, String> {
    let _ = std::fs::remove_file(socket);
    let mut cmd = Command::new(bin);
    cmd.arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        .arg("--shards")
        .arg(shards.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let pid = child.id().to_string();
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    if read.map_or(true, |n| n == 0) || !line.starts_with("listening on") {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("goc-serve did not start: {line:?}"));
    }
    let mut stderr = child.stderr.take().expect("piped stderr");
    let stderr = Some(std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    }));
    Ok(Daemon {
        child,
        pid,
        socket: socket.to_path_buf(),
        stderr,
        requests: 0,
        opened: 0,
        closed: 0,
    })
}

impl Daemon {
    fn connect(&self) -> Result<UnixStream, String> {
        let mut s = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(DAEMON_TIMEOUT))
            .map_err(|e| e.to_string())?;
        wire::write_handshake(&mut s).map_err(|e| e.to_string())?;
        wire::read_handshake(&mut s).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Sends `Shutdown`, waits for the process to exit, and checks its
    /// teardown counters against what was sent: every request executed,
    /// no error replies, every session closed. Returns the counters and
    /// the number of failed checks.
    fn shutdown(mut self) -> (DaemonStats, u64) {
        let mut failed = 0;
        match self.connect() {
            Ok(mut s) => {
                let bye = wire::write_frame(&mut s, &Frame::Shutdown)
                    .and_then(|_| wire::read_frame(&mut s));
                if !matches!(bye, Ok(Frame::Bye)) {
                    failed += 1;
                }
            }
            Err(_) => failed += 1,
        }
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        failed += 1;
                    }
                    break;
                }
                Ok(None) if t0.elapsed() < DAEMON_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    failed += 1;
                    break;
                }
            }
        }
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        let _ = std::fs::remove_file(&self.socket);
        let stats = parse_stats(&stderr).unwrap_or_default();
        if stats.requests != self.requests
            || stats.errors != 0
            || stats.opened != self.opened
            || stats.closed != self.closed
            || stats.opened != stats.closed
        {
            eprintln!(
                "perfbench: daemon teardown {stats:?} disagrees with {} requests, {} opened, {} closed sent",
                self.requests, self.opened, self.closed
            );
            failed += 1;
        }
        (stats, failed)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path: never leave the daemon running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

// ---------------------------------------------------------------------------
// Sessions and their reference
// ---------------------------------------------------------------------------

/// One session's identity and the requests it needs.
#[derive(Clone, Debug)]
struct Plan {
    index: u64,
    id: u64,
    /// The id it is restored under (another shard).
    restore_id: u64,
    scenario: &'static str,
    seed: u64,
    horizon: u64,
}

fn plan(base_seed: u64, index: u64, shards: u64) -> Plan {
    // Ids of one index fill a block of 2 * shards; the restored id lands on
    // the shard after the opened one. Consecutive indices of one client
    // alternate shards, so no connection is tied to one shard.
    let block = index * 2 * shards;
    let shard = (index / shards + index) % shards;
    let id = block + shard;
    let restore_id = block + shards + (shard + 1) % shards;
    Plan {
        index,
        id,
        restore_id,
        scenario: SCENARIO,
        seed: session_seed(base_seed, index),
        horizon: HORIZON,
    }
}

fn outcome_line(p: &Plan, round: u64, halted: bool, heard: u64) -> String {
    format!(
        "{} seed {}: round {round}, halted {halted}, heard {heard}",
        p.scenario, p.seed
    )
}

/// The same session run uninterrupted in process.
fn reference_line(p: &Plan) -> Option<String> {
    let mut s = Session::build(p.scenario, p.seed)?;
    s.step_to(p.horizon);
    Some(outcome_line(p, s.round(), s.halted(), s.heard()))
}

/// What a session that ran to the end produced over the wire.
struct Driven {
    line: String,
    /// Rounds asked for by each `Drive`, in order (for the in-process replay).
    drives: Vec<u64>,
    /// Rounds driven before the snapshot.
    snapped_at: u64,
}

/// One measured session; `driven` is `None` when it failed on the wire.
struct SessionResult {
    plan: Plan,
    driven: Option<Driven>,
    wall: Duration,
    /// When the session settled.
    done: Instant,
}

// ---------------------------------------------------------------------------
// Client-side framing with per-type timing
// ---------------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct TypeStats {
    frames: u64,
    encode_ns: u64,
    decode_ns: u64,
    bytes: u64,
}

#[derive(Default)]
struct WireStats {
    by_type: HashMap<&'static str, TypeStats>,
}

impl WireStats {
    /// Encodes a request the way the client must, and (traced only) also
    /// times its decode, the daemon's side of the same frame.
    fn encode(&mut self, frame: &Frame) -> Vec<u8> {
        if !trace::on() {
            return frame.encode();
        }
        let t0 = Instant::now();
        let body = trace::span(Layer::Encode, || frame.encode());
        let t1 = Instant::now();
        let decoded = trace::span(Layer::Decode, || Frame::decode(&body));
        let t2 = Instant::now();
        debug_assert!(decoded.is_ok());
        let s = self.by_type.entry(frame_type(frame)).or_default();
        s.frames += 1;
        s.encode_ns += common::ns_between(t0, t1);
        s.decode_ns += common::ns_between(t1, t2);
        s.bytes += body.len() as u64;
        body
    }

    /// Decodes a reply, and (traced only) also times its encode, the
    /// daemon's side of the same frame.
    fn decode(&mut self, body: &[u8]) -> Result<Frame, wire::WireError> {
        if !trace::on() {
            return Frame::decode(body);
        }
        let t0 = Instant::now();
        let frame = trace::span(Layer::Decode, || Frame::decode(body))?;
        let t1 = Instant::now();
        let _ = trace::span(Layer::Encode, || std::hint::black_box(frame.encode()));
        let t2 = Instant::now();
        let s = self.by_type.entry(frame_type(&frame)).or_default();
        s.frames += 1;
        s.decode_ns += common::ns_between(t0, t1);
        s.encode_ns += common::ns_between(t1, t2);
        s.bytes += body.len() as u64;
        Ok(frame)
    }

    fn merge(&mut self, other: &WireStats) {
        for (k, v) in &other.by_type {
            let s = self.by_type.entry(k).or_default();
            s.frames += v.frames;
            s.encode_ns += v.encode_ns;
            s.decode_ns += v.decode_ns;
            s.bytes += v.bytes;
        }
    }
}

/// A client connection that counts and (when tracing) times its frames.
struct Conn {
    stream: UnixStream,
    wire: WireStats,
    sent: u64,
}

impl Conn {
    fn new(stream: UnixStream) -> Conn {
        Conn {
            stream,
            wire: WireStats::default(),
            sent: 0,
        }
    }

    /// Sends one request and blocks for its reply (the read timeout set
    /// at connect bounds the wait).
    fn request(&mut self, frame: &Frame) -> Result<Frame, String> {
        let body = self.wire.encode(frame);
        self.sent += 1;
        wire::write_frame_body(&mut self.stream, &body).map_err(|e| e.to_string())?;
        let reply = wire::read_frame_body(&mut self.stream).map_err(|e| e.to_string())?;
        self.wire.decode(&reply).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// The load: one blocking client per core
// ---------------------------------------------------------------------------

/// Latency samples and results from one client thread.
#[derive(Default)]
struct ThreadReport {
    sessions: Vec<SessionResult>,
    drive_ms: Vec<f64>,
    /// Round trips (send to reply), summed, with their count.
    rtt_ns: u64,
    rtts: u64,
    sent: u64,
    opened: u64,
    closed: u64,
    wire: WireStats,
    totals: Vec<(Layer, trace::Totals)>,
}

/// One client: sessions back to back until `deadline`.
fn client_thread(
    conn: &mut Conn,
    plans: impl Iterator<Item = Plan>,
    deadline: Instant,
) -> ThreadReport {
    let mut rep = ThreadReport::default();
    for p in plans {
        if Instant::now() >= deadline {
            break;
        }
        if trace::on() {
            trace::set_op(p.index);
        }
        let t0 = Instant::now();
        let outcome = trace::span(Layer::Op, || migrate_session(conn, &p, &mut rep));
        let done = Instant::now();
        let torn = matches!(&outcome, Err(e) if e.starts_with("io"));
        if let Err(e) = &outcome {
            eprintln!("perfbench: session {} failed: {e}", p.index);
        }
        rep.sessions.push(SessionResult {
            plan: p,
            driven: outcome.ok(),
            wall: done - t0,
            done,
        });
        if torn {
            break; // a torn connection ends this client
        }
    }
    rep
}

fn timed_request(conn: &mut Conn, frame: &Frame, rep: &mut ThreadReport) -> Result<Frame, String> {
    let t0 = Instant::now();
    let reply = trace::span(Layer::Request, || conn.request(frame)).map_err(|e| format!("io: {e}"));
    let t1 = Instant::now();
    rep.rtt_ns += common::ns_between(t0, t1);
    rep.rtts += 1;
    if let Frame::Drive { .. } = frame {
        rep.drive_ms.push(common::ms(t1 - t0));
    }
    reply
}

fn expect_status(f: Frame, session: u64) -> Result<(u64, bool, u64), String> {
    match f {
        Frame::Status {
            session: s,
            round,
            halted,
            heard,
        } if s == session => Ok((round, halted, heard)),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Drives `session` in quanta until it reaches round `until`.
fn drive_to(
    conn: &mut Conn,
    session: u64,
    until: u64,
    status: (u64, bool, u64),
    drives: &mut Vec<u64>,
    rep: &mut ThreadReport,
) -> Result<(u64, bool, u64), String> {
    let mut status = status;
    while status.0 < until {
        let rounds = QUANTUM.min(until - status.0);
        drives.push(rounds);
        let drive = Frame::Drive { session, rounds };
        status = expect_status(timed_request(conn, &drive, rep)?, session)?;
    }
    Ok(status)
}

fn close(conn: &mut Conn, session: u64, rep: &mut ThreadReport) -> Result<(), String> {
    match timed_request(conn, &Frame::Close { session }, rep)? {
        Frame::Closed { session: s } if s == session => {
            rep.closed += 1;
            Ok(())
        }
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// One session: open, drive to `SNAP_AT`, snap, close, restore under
/// `restore_id`, drive to the horizon, close.
fn migrate_session(conn: &mut Conn, p: &Plan, rep: &mut ThreadReport) -> Result<Driven, String> {
    let mut drives = Vec::new();
    let open = Frame::Open {
        session: p.id,
        scenario: p.scenario.to_string(),
        seed: p.seed,
    };
    let opened = expect_status(timed_request(conn, &open, rep)?, p.id)?;
    rep.opened += 1;
    let (snapped_at, _, _) = drive_to(conn, p.id, SNAP_AT, opened, &mut drives, rep)?;
    let snap = match timed_request(conn, &Frame::Snap { session: p.id }, rep)? {
        Frame::SnapData { session, snap } if session == p.id => snap,
        other => return Err(format!("unexpected reply {other:?}")),
    };
    close(conn, p.id, rep)?;
    let restore = Frame::Restore {
        session: p.restore_id,
        scenario: p.scenario.to_string(),
        seed: p.seed,
        snap,
    };
    let restored = expect_status(timed_request(conn, &restore, rep)?, p.restore_id)?;
    rep.opened += 1;
    if restored.0 != snapped_at {
        return Err(format!(
            "restored at round {}, snapped at {snapped_at}",
            restored.0
        ));
    }
    let (round, halted, heard) =
        drive_to(conn, p.restore_id, p.horizon, restored, &mut drives, rep)?;
    close(conn, p.restore_id, rep)?;
    Ok(Driven {
        line: outcome_line(p, round, halted, heard),
        drives,
        snapped_at,
    })
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Phase {
    reports: Vec<ThreadReport>,
    /// The daemon's CPU time at window boundaries.
    clock: CpuClock,
}

fn run_phase(
    conns: &mut [Conn],
    daemon_pid: &str,
    seed: u64,
    first_index: u64,
    budget: Duration,
    traced: bool,
) -> Phase {
    let clients = conns.len() as u64;
    let shards = common::nproc() as u64;
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let reports: (Vec<ThreadReport>, CpuClock) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                scope.spawn(move || {
                    if traced {
                        trace::start();
                    }
                    conn.sent = 0;
                    conn.wire = WireStats::default();
                    let plans =
                        (0..).map(|j| plan(seed, first_index + j * clients + t as u64, shards));
                    let mut rep = client_thread(conn, plans, deadline);
                    rep.sent = conn.sent;
                    rep.wire = std::mem::take(&mut conn.wire);
                    if traced {
                        rep.totals = trace::totals();
                        let _ = trace::finish(&format!("client-{t}"));
                    }
                    rep
                })
            })
            .collect();
        let mut clock = CpuClock::new(daemon_pid);
        let window = budget / common::WINDOWS;
        for i in 1..=common::WINDOWS {
            let at = t0 + window * i;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            clock.mark();
        }
        let reports = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (reports, clock)
    });
    Phase {
        reports: reports.0,
        clock: reports.1,
    }
}

pub struct Args<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub inject_mismatch: bool,
    pub serve_bin: &'a Path,
    pub out_dir: &'a Path,
}

impl Args<'_> {
    fn base_seed(&self) -> u64 {
        Draw::new(self.seed).next()
    }
}

/// Spawns the daemon with one shard per core, connects one client per
/// core and runs one warm-up session on each: the set-up a fleet pays
/// before serving.
fn set_up(a: &Args<'_>) -> Result<(Daemon, Vec<Conn>), String> {
    let shards = common::nproc();
    let socket = a
        .out_dir
        .join(format!("goc-serve-{}.sock", std::process::id()));
    let mut daemon = spawn_daemon(a.serve_bin, &socket, shards)?;
    let mut conns = Vec::with_capacity(shards);
    for t in 0..shards {
        let mut conn = Conn::new(daemon.connect()?);
        let p = plan(a.base_seed(), WARM_UP_INDEX + t as u64, shards as u64);
        let mut rep = ThreadReport::default();
        migrate_session(&mut conn, &p, &mut rep)?;
        daemon.requests += conn.sent;
        daemon.opened += rep.opened;
        daemon.closed += rep.closed;
        conns.push(conn);
    }
    Ok((daemon, conns))
}

/// Runs the set-up alone and returns the seconds from `start` to its end;
/// the daemon is then shut down and its teardown checked.
pub fn time_set_up(a: &Args<'_>, start: Instant) -> Result<f64, String> {
    let (daemon, conns) = set_up(a)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(conns);
    match daemon.shutdown().1 {
        0 => Ok(seconds),
        _ => Err("daemon teardown check failed after set-up".into()),
    }
}

/// Checks every session's outcome line against the in-process reference.
fn check(sessions: &[SessionResult], inject_mismatch: bool) -> u64 {
    // The references are independent in-process runs, computed once the
    // measured run is over: spread them over the cores.
    let chunk = sessions.len().div_ceil(common::nproc()).max(1);
    let wants: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(|s| reference_line(&s.plan)).collect()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| -> Vec<_> { h.join().expect("reference thread panicked") })
            .collect()
    });
    let mut failed = 0;
    for (i, (s, want)) in sessions.iter().zip(wants).enumerate() {
        let ok = match (&s.driven, want) {
            (Some(d), Some(want)) => {
                let got = if inject_mismatch && i == 0 {
                    d.line.replace("round", "rnd")
                } else {
                    d.line.clone()
                };
                if got != want {
                    eprintln!(
                        "perfbench: session {} outcome {got:?} != in-process {want:?}",
                        s.plan.index
                    );
                }
                got == want
            }
            _ => false,
        };
        if !ok {
            failed += 1;
        }
    }
    failed
}

pub fn run(a: &Args<'_>) -> Result<Outcome, String> {
    let (mut daemon, mut conns) = set_up(a)?;
    let base_seed = a.base_seed();
    let budget = Duration::from_secs_f64(a.seconds);
    let (mut untraced, mut traced) = if a.traced {
        let u = run_phase(&mut conns, &daemon.pid, base_seed, 0, budget / 2, false);
        let next = u
            .reports
            .iter()
            .map(|r| r.sessions.len() as u64)
            .sum::<u64>()
            + 1_000_000;
        let t = run_phase(&mut conns, &daemon.pid, base_seed, next, budget / 2, true);
        (u, Some(t))
    } else {
        (
            run_phase(&mut conns, &daemon.pid, base_seed, 0, budget, false),
            None,
        )
    };
    let rss = common::peak_rss_mb(&daemon.pid);
    for phase in std::iter::once(&untraced).chain(traced.as_ref()) {
        for r in &phase.reports {
            daemon.requests += r.sent;
            daemon.opened += r.opened;
            daemon.closed += r.closed;
        }
    }
    drop(conns);
    let (stats, mut failed) = daemon.shutdown();

    let take = |p: &mut Phase| -> Vec<SessionResult> {
        p.reports
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.sessions))
            .collect()
    };
    let untraced_sessions = take(&mut untraced);
    let traced_sessions = traced.as_mut().map(take).unwrap_or_default();
    failed += check(&untraced_sessions, a.inject_mismatch) + check(&traced_sessions, false);
    let attempted = (untraced_sessions.len() + traced_sessions.len()) as u64;
    if attempted == 0 {
        return Err("no session completed".into());
    }

    let walls = ok_walls(&untraced_sessions);
    let drives = common::sorted(
        untraced
            .reports
            .iter()
            .flat_map(|r| r.drive_ms.iter().copied())
            .collect(),
    );
    let ops: Vec<(Instant, f64)> = untraced_sessions
        .iter()
        .filter(|s| s.driven.is_some())
        .map(|s| (s.done, common::ms(s.wall)))
        .collect();
    let w = common::windowed(&ops, &untraced.clock);
    let rss = rss.unwrap_or(0.0);
    let failed_ratio = failed as f64 / attempted as f64;

    if let Some(t) = traced {
        let mut metrics = layer_metrics(&t, &traced_sessions, &walls, &drives, stats, failed_ratio);
        metrics.push(metric("cpu_us_per_op", w.cpu_us_per_op, "us"));
        return Ok(Outcome {
            attempted,
            failed,
            checks_ran: true,
            metrics,
            display: Vec::new(),
        });
    }
    let metrics = vec![
        metric("op_ms_p50", w.p50, "ms"),
        metric("op_ms_p90", w.p90, "ms"),
        metric("ops_per_s", w.ops_per_s, "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    let display = vec![
        metric("session_ms_p50", w.p50, "ms"),
        metric("session_ms_p99", common::percentile(&walls, 0.99), "ms"),
        metric("sessions_per_s", w.ops_per_s, "1/s"),
        metric("daemon_cpu_us_per_session", w.cpu_us_per_op, "us"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("failed_ratio", failed_ratio, "ratio"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        checks_ran: true,
        metrics,
        display,
    })
}

/// Sorted wall times (ms) of the sessions that ran to the end.
fn ok_walls(sessions: &[SessionResult]) -> Vec<f64> {
    common::sorted(
        sessions
            .iter()
            .filter(|s| s.driven.is_some())
            .map(|s| common::ms(s.wall))
            .collect(),
    )
}

/// In-process replay of the traced sessions' exact request sequence
/// through `goc_serve::Session`: the daemon's execution and snapshot work
/// without the daemon. Returns total nanoseconds per kind of work.
#[derive(Default)]
struct Replay {
    builds: u64,
    build_ns: u64,
    drives: u64,
    drive_ns: u64,
    saves: u64,
    save_ns: u64,
    snap_bytes: u64,
    restore_ns: u64,
}

fn replay(sessions: &[SessionResult]) -> Replay {
    let mut r = Replay::default();
    for s in sessions {
        let (p, Some(d)) = (&s.plan, &s.driven) else {
            continue;
        };
        let t0 = Instant::now();
        let Some(mut session) =
            trace::span(Layer::SessionDrive, || Session::build(p.scenario, p.seed))
        else {
            continue;
        };
        r.build_ns += common::ns_between(t0, Instant::now());
        r.builds += 1;
        for &rounds in &d.drives {
            if session.round() == d.snapped_at {
                let t0 = Instant::now();
                let bytes = trace::span(Layer::SnapSave, || session.save_to_vec())
                    .expect("toy sessions snapshot");
                let t1 = Instant::now();
                let mut fresh = Session::build(p.scenario, p.seed).expect("built above");
                let t2 = Instant::now();
                trace::span(Layer::SnapRestore, || fresh.restore(&bytes))
                    .expect("own snapshot restores");
                let t3 = Instant::now();
                session = fresh;
                r.saves += 1;
                r.save_ns += common::ns_between(t0, t1);
                r.build_ns += common::ns_between(t1, t2);
                r.builds += 1;
                r.restore_ns += common::ns_between(t2, t3);
                r.snap_bytes += bytes.len() as u64;
            }
            let t0 = Instant::now();
            std::hint::black_box(trace::span(Layer::SessionDrive, || session.drive(rounds)));
            r.drive_ns += common::ns_between(t0, Instant::now());
            r.drives += 1;
        }
    }
    r
}

fn layer_metrics(
    traced: &Phase,
    sessions: &[SessionResult],
    untraced_walls: &[f64],
    drives: &[f64],
    stats: DaemonStats,
    failed_ratio: f64,
) -> Vec<Metric> {
    let mut wire = WireStats::default();
    let mut rtt_ns = 0u64;
    let mut rtts = 0u64;
    let mut request_ns = 0u64;
    for r in &traced.reports {
        wire.merge(&r.wire);
        rtt_ns += r.rtt_ns;
        rtts += r.rtts;
        request_ns += r
            .totals
            .iter()
            .find(|(l, _)| *l == Layer::Request)
            .map_or(0, |(_, t)| t.total_ns);
    }
    trace::start();
    let rp = replay(sessions);
    let _ = trace::finish("replay");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Vec::new();
    let mut framing_ns = 0u64;
    for t in FRAME_TYPES {
        let s = wire.by_type.get(t).copied().unwrap_or_default();
        framing_ns += s.encode_ns + s.decode_ns;
        m.push(metric(
            &format!("wire.encode_ns.{t}"),
            ratio(s.encode_ns as f64, s.frames as f64),
            "ns",
        ));
        m.push(metric(
            &format!("wire.decode_ns.{t}"),
            ratio(s.decode_ns as f64, s.frames as f64),
            "ns",
        ));
        m.push(metric(
            &format!("wire.bytes.{t}"),
            ratio(s.bytes as f64, s.frames as f64),
            "bytes",
        ));
    }
    let work_ns = rp.build_ns + rp.drive_ns + rp.save_ns + rp.restore_ns;
    // The daemon layer (socket, reader thread, shard queue, writer) is not
    // timed on its own: it is the residual of the round trips once the
    // replayed session work and the framing are taken out. Each frame is
    // encoded once and decoded once on the way; both sides' costs were
    // timed on the client's copies.
    let overhead = ratio(
        rtt_ns as f64 - work_ns as f64 - framing_ns as f64,
        rtts as f64,
    );
    let traced_walls = ok_walls(sessions);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let wall_ns: f64 = traced_walls.iter().sum::<f64>() * 1e6;
    m.extend([
        metric(
            "session.build_ns",
            ratio(rp.build_ns as f64, rp.builds as f64),
            "ns",
        ),
        metric(
            "session.drive_ns",
            ratio(rp.drive_ns as f64, rp.drives as f64),
            "ns",
        ),
        metric(
            "snap.save_ns",
            ratio(rp.save_ns as f64, rp.saves as f64),
            "ns",
        ),
        metric(
            "snap.restore_ns",
            ratio(rp.restore_ns as f64, rp.saves as f64),
            "ns",
        ),
        metric(
            "snap.bytes",
            ratio(rp.snap_bytes as f64, rp.saves as f64),
            "bytes",
        ),
        metric("daemon.overhead_ns", overhead, "ns"),
        metric("daemon.requests", stats.requests as f64, "count"),
        metric("daemon.errors", stats.errors as f64, "count"),
        metric("daemon.opened", stats.opened as f64, "count"),
        metric("daemon.closed", stats.closed as f64, "count"),
        metric("drive_ms_p50", common::percentile(drives, 0.5), "ms"),
        metric("drive_ms_p99", common::percentile(drives, 0.99), "ms"),
        metric(
            "session_ms_p99",
            common::percentile(untraced_walls, 0.99),
            "ms",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(mean(&traced_walls), mean(untraced_walls)),
            "ratio",
        ),
        // Round-trip spans over session wall. With the daemon share a
        // residual, this only shows client time outside the round trips;
        // in a closed loop it is close to 1 by construction.
        metric(
            "trace.self_coverage",
            ratio(request_ns as f64, wall_ns),
            "ratio",
        ),
        metric("failed_ratio", failed_ratio, "ratio"),
    ]);
    m
}

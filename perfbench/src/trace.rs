//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: nothing inside the library is
//! instrumented. A span carries its layer, start, end, parent and the id of
//! the operation (conquest or session) it belongs to. Every span feeds
//! per-layer totals; the first [`SAMPLE_CAP`] spans are also kept verbatim
//! and written out as JSON lines when the benchmark ends.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover. Recording is per thread and off unless [`start`] was called
//! on that thread, so the untraced run pays one thread-local load per
//! wrapped call (and the untraced run does not mount the wrappers at all).

use goc_core::prelude::*;
use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::time::Instant;

/// The layers spans are recorded for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole operation (a conquest or a session): the root span.
    Op,
    /// `Execution::run`, the round loop.
    Exec,
    /// `LevinUniversalUser::step`, the schedule and switching.
    Universal,
    /// `StrategyEnumerator::{strategy, batch, prefetch}`.
    Enumerate,
    /// One candidate's `UserStrategy::step` (VM interpretation or cache).
    Candidate,
    /// `Sensing::observe`.
    Sensing,
    /// The toy server's and world's `step`.
    WorldServer,
    /// One client round trip: request sent to reply decoded.
    Request,
    /// `Frame::encode`.
    Encode,
    /// `Frame::decode`.
    Decode,
    /// `Session::drive` replayed in process.
    SessionDrive,
    /// `Session::save_to_vec` replayed in process.
    SnapSave,
    /// `Session::restore` replayed in process.
    SnapRestore,
}

/// Every layer, in declaration order (so `LAYERS[l as usize] == l`).
pub const LAYERS: [Layer; 13] = [
    Layer::Op,
    Layer::Exec,
    Layer::Universal,
    Layer::Enumerate,
    Layer::Candidate,
    Layer::Sensing,
    Layer::WorldServer,
    Layer::Request,
    Layer::Encode,
    Layer::Decode,
    Layer::SessionDrive,
    Layer::SnapSave,
    Layer::SnapRestore,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Exec => "exec",
            Layer::Universal => "universal",
            Layer::Enumerate => "enumerate",
            Layer::Candidate => "vm.candidate",
            Layer::Sensing => "sensing",
            Layer::WorldServer => "toy.world_server",
            Layer::Request => "request",
            Layer::Encode => "wire.encode",
            Layer::Decode => "wire.decode",
            Layer::SessionDrive => "session.drive",
            Layer::SnapSave => "snap.save",
            Layer::SnapRestore => "snap.restore",
        }
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

/// Verbatim spans kept per thread; totals cover every span regardless.
pub const SAMPLE_CAP: usize = 200_000;

/// Aggregates for one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct OpenSpan {
    id: u32,
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

struct SpanRecord {
    id: u32,
    parent: u32,
    op: u64,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    op: u64,
    next_id: u32,
    stack: Vec<OpenSpan>,
    totals: [Totals; LAYERS.len()],
    sample: Vec<SpanRecord>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on for this thread, with fresh totals.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            op: 0,
            next_id: 1,
            stack: Vec::new(),
            totals: [Totals::default(); LAYERS.len()],
            sample: Vec::new(),
        })
    });
    ON.with(|o| o.set(true));
}

/// Whether this thread records.
#[inline]
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Tags the spans that follow with operation id `op`.
pub fn set_op(op: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Runs `f` inside a span of `layer` when this thread records.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    enter(layer);
    let out = f();
    exit();
    out
}

fn enter(layer: Layer) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording is on");
        let id = rec.next_id;
        rec.next_id = rec.next_id.wrapping_add(1);
        rec.stack.push(OpenSpan {
            id,
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

fn exit() {
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording is on");
        let open = rec.stack.pop().expect("exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = match rec.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = &mut rec.totals[open.layer.index()];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if rec.sample.len() < SAMPLE_CAP {
            let start_ns = open.start.duration_since(rec.epoch).as_nanos() as u64;
            rec.sample.push(SpanRecord {
                id: open.id,
                parent,
                op: rec.op,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// This thread's per-layer totals so far.
pub fn totals() -> Vec<(Layer, Totals)> {
    REC.with(|r| match r.borrow().as_ref() {
        Some(rec) => LAYERS.iter().map(|&l| (l, rec.totals[l.index()])).collect(),
        None => LAYERS.iter().map(|&l| (l, Totals::default())).collect(),
    })
}

static OUTPUT: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();

/// Sets the file sampled spans are appended to (first call wins).
pub fn set_output(path: std::path::PathBuf) {
    let _ = OUTPUT.set(path);
}

/// Stops recording on this thread and appends its sampled spans to the
/// output file as JSON lines, tagged with `thread`.
pub fn finish(thread: &str) -> std::io::Result<()> {
    ON.with(|o| o.set(false));
    let Some(rec) = REC.with(|r| r.borrow_mut().take()) else {
        return Ok(());
    };
    let Some(path) = OUTPUT.get() else {
        return Ok(());
    };
    let mut body = String::with_capacity(rec.sample.len() * 96);
    for s in &rec.sample {
        body.push_str(&format!(
            "{{\"thread\":\"{thread}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op,
            s.id,
            s.parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        ));
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(body.as_bytes())?;
    f.flush()
}

// ---------------------------------------------------------------------------
// Wrappers that put spans around each layer's trait calls. Every wrapper
// forwards all other trait methods unchanged, so a wrapped execution makes
// exactly the calls the bare one does.
// ---------------------------------------------------------------------------

thread_local! {
    static CANDIDATES: Cell<u64> = const { Cell::new(0) };
}

/// Candidates the traced enumerators on this thread have built so far.
pub fn candidates_built() -> u64 {
    CANDIDATES.with(Cell::get)
}

fn count_candidates(n: usize) {
    CANDIDATES.with(|c| c.set(c.get() + n as u64));
}

/// Times `StrategyEnumerator` calls and wraps every candidate it returns.
#[derive(Debug)]
pub struct TracedEnumerator(pub Box<dyn StrategyEnumerator>);

impl StrategyEnumerator for TracedEnumerator {
    fn len(&self) -> Option<usize> {
        self.0.len()
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        let user = span(Layer::Enumerate, || self.0.strategy(index));
        count_candidates(1);
        user.map(TracedCandidate::boxed)
    }

    fn batch(&self, indices: &[usize]) -> Vec<Option<BoxedUser>> {
        let users = span(Layer::Enumerate, || self.0.batch(indices));
        count_candidates(indices.len());
        users
            .into_iter()
            .map(|u| u.map(TracedCandidate::boxed))
            .collect()
    }

    fn prefetch(&self, indices: &[usize]) {
        span(Layer::Enumerate, || self.0.prefetch(indices))
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Times one candidate's rounds.
#[derive(Debug)]
pub struct TracedCandidate(pub BoxedUser);

impl TracedCandidate {
    pub fn boxed(user: BoxedUser) -> BoxedUser {
        Box::new(TracedCandidate(user))
    }
}

impl UserStrategy for TracedCandidate {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        span(Layer::Candidate, || self.0.step(ctx, input))
    }
    fn halted(&self) -> Option<Halt> {
        self.0.halted()
    }
    fn fork(&self) -> Option<BoxedUser> {
        self.0.fork().map(TracedCandidate::boxed)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.0.save_snap(w)
    }
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snap(r)
    }
}

/// Times the universal user's own step (its children are the candidate,
/// sensing and enumerator spans).
#[derive(Debug)]
pub struct TracedUser(pub BoxedUser);

impl UserStrategy for TracedUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        span(Layer::Universal, || self.0.step(ctx, input))
    }
    fn halted(&self) -> Option<Halt> {
        self.0.halted()
    }
    fn fork(&self) -> Option<BoxedUser> {
        self.0.fork().map(|u| Box::new(TracedUser(u)) as BoxedUser)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.0.save_snap(w)
    }
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snap(r)
    }
}

/// Times `Sensing::observe`.
#[derive(Debug)]
pub struct TracedSensing(pub BoxedSensing);

impl Sensing for TracedSensing {
    fn observe(&mut self, event: &ViewEvent) -> Indication {
        span(Layer::Sensing, || self.0.observe(event))
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.0.save_snap(w)
    }
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snap(r)
    }
}

/// Times the server's step.
#[derive(Debug)]
pub struct TracedServer(pub BoxedServer);

impl ServerStrategy for TracedServer {
    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &ServerIn) -> ServerOut {
        span(Layer::WorldServer, || self.0.step(ctx, input))
    }
    fn fork(&self) -> Option<BoxedServer> {
        self.0
            .fork()
            .map(|s| Box::new(TracedServer(s)) as BoxedServer)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.0.save_snap(w)
    }
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snap(r)
    }
}

/// Times the world's step.
#[derive(Debug)]
pub struct TracedWorld<W>(pub W);

impl<W: WorldStrategy> WorldStrategy for TracedWorld<W> {
    type State = W::State;

    fn step(&mut self, ctx: &mut StepCtx<'_>, input: &WorldIn) -> WorldOut {
        span(Layer::WorldServer, || self.0.step(ctx, input))
    }
    fn state(&self) -> Self::State {
        self.0.state()
    }
    fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        self.0.save_snap(w)
    }
    fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snap(r)
    }
    fn snap_state(state: &Self::State, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        W::snap_state(state, w)
    }
    fn restore_state(r: &mut SnapReader<'_>) -> Result<Self::State, SnapError> {
        W::restore_state(r)
    }
}

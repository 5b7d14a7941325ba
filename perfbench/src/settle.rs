//! The in-process path: finite-Levin conquests over VM program classes.
//!
//! Every conquest is checked against a paper-level reference: the referee
//! must accept with no false halt, and the settle round must equal the one
//! the Levin schedule implies — the first scheduled slot whose candidate,
//! run alone on the empty inbox it sees until the world acknowledges, says
//! the (server-shifted) magic word, plus the three-hop round trip user →
//! server → world → user.

use crate::common::{self, metric, CpuClock, Draw, Metric, Outcome};
use crate::trace::{
    self, Layer, TracedEnumerator, TracedSensing, TracedServer, TracedUser, TracedWorld,
};
use goc_core::obs;
use goc_core::prelude::*;
use goc_core::toy;
use goc_core::universal::BudgetSchedule;
use goc_vm::{Machine, ProgramEnumerator, RoundIo};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Rounds from the round a candidate says the word to the round the run
/// stops: the server relays it next round, the world hears it and acks the
/// round after, the user senses the ack and halts, and the loop counts that
/// round as executed.
const ROUND_TRIP: u64 = 4;

/// Far beyond any settle round the workloads draw.
const HORIZON: u64 = 1 << 22;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Levin schedule over a small class whose early candidates burn their
    /// full fuel every round: interpretation dominates.
    Vm,
    /// Round-robin conquests over one class with a small family of goal
    /// words: candidate rounds repeat across conquests, so the cache serves
    /// most of them.
    Cached,
}

/// One conquest's inputs. The reference does not depend on `rng_seed`
/// (the toy parties draw no randomness), so it is memoised without it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Conquest {
    alphabet: Vec<u8>,
    max_len: usize,
    fuel: u32,
    /// The word the winning candidate must emit.
    said: Vec<u8>,
    /// The relay server's Caesar shift; the world waits for `said + shift`.
    shift: u8,
    round_robin: bool,
    base: u64,
    rng_seed: u64,
}

impl Conquest {
    fn world_word(&self) -> Vec<u8> {
        self.said
            .iter()
            .map(|b| b.wrapping_add(self.shift))
            .collect()
    }

    fn class(&self) -> ProgramEnumerator {
        ProgramEnumerator::over(self.alphabet.clone())
            .with_max_len(self.max_len)
            .with_fuel(self.fuel)
    }
}

/// settle-vm goal letters (the third is the byte 0x08). All three decode
/// as a register `add` (opcode 8), name register 0 as an operand, and give
/// the same jump target as a `jmp` operand in programs of length 1 to 3
/// (2 mod 6), so the letter changes the word and the program bytes but not
/// the class's control flow or cost.
const VM_LETTERS: [u8; 3] = [b'h', b'8', 0x08];

/// settle-vm alphabet orders: `[jmp, emit.a, letter]` permuted. The order
/// sets where `[emit.a letter]` sits in the length-lexicographic class
/// (its planted depth): 6 or 7 here, drawn 1:3, so the median and p90 both
/// fall inside the depth-7 conquests and the two costs differ only 2x.
const VM_ORDERS: [[usize; 3]; 4] = [[1, 0, 2], [2, 1, 0], [2, 1, 0], [2, 1, 0]];

/// settle-vm fuel. Conquests walk every `(letter, fuel)` pair once per
/// `VM_LETTERS.len() * VM_FUEL_SPAN` conquests, so no two nearby conquests
/// share candidate-cache keys and each one interprets; by the time a pair
/// comes back, the cache (which runs at capacity here, evicting half a
/// shard at a time) has dropped nearly all of its entries.
const VM_FUEL_BASE: u32 = 4_096;
const VM_FUEL_SPAN: u32 = 512;

/// settle-cached: the E15-style class, one fuel per run.
const CACHED_ALPHABET: [u8; 4] = [0x0b, 0x01, b'h', b'x'];
const CACHED_FUEL: u32 = 8_192;
const CACHED_WORDS: [&[u8]; 4] = [b"hh", b"hx", b"xh", b"xx"];
/// Draw weights of the words, in eighths. `hh`/`hx` sit at indices 102/103
/// of the class and `xh`/`xx` at 118/119, so conquests come in two cost
/// clusters; drawing the first 3:1 keeps the median inside one cluster and
/// p90 inside the other, where run-to-run mix changes cannot move them.
const CACHED_WORD_DRAW: [usize; 8] = [0, 0, 0, 1, 1, 1, 2, 3];

struct Plan {
    kind: Kind,
    draw: Draw,
    next: u64,
    fuel_offset: u64,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Plan {
        let mut draw = Draw::new(seed);
        let fuel_offset = draw.below(VM_LETTERS.len() as u64 * VM_FUEL_SPAN as u64);
        Plan {
            kind,
            draw,
            next: 0,
            fuel_offset,
        }
    }

    fn conquest(&mut self) -> Conquest {
        let k = self.next;
        self.next += 1;
        let rng_seed = self.draw.next();
        match self.kind {
            Kind::Vm => {
                let order = VM_ORDERS[self.draw.below(VM_ORDERS.len() as u64) as usize];
                // A stride coprime to the span walks every fuel value once,
                // and the letter moves on after each span.
                let span = VM_FUEL_SPAN as u64;
                let j = k + self.fuel_offset;
                let letter = VM_LETTERS[((j / span) % VM_LETTERS.len() as u64) as usize];
                let fuel = VM_FUEL_BASE as u64 + (j * 389) % span;
                let symbols = [0x0b, 0x01, letter];
                Conquest {
                    alphabet: order.iter().map(|&i| symbols[i]).collect(),
                    max_len: 3,
                    fuel: fuel as u32,
                    said: vec![letter],
                    shift: 0,
                    round_robin: false,
                    base: 8,
                    rng_seed,
                }
            }
            Kind::Cached => Conquest {
                alphabet: CACHED_ALPHABET.to_vec(),
                max_len: 4,
                fuel: CACHED_FUEL,
                said: CACHED_WORDS
                    [CACHED_WORD_DRAW[self.draw.below(CACHED_WORD_DRAW.len() as u64) as usize]]
                    .to_vec(),
                shift: self.draw.below(8) as u8,
                round_robin: true,
                base: 8,
                rng_seed,
            },
        }
    }
}

/// One measured conquest.
struct Record {
    conquest: Conquest,
    wall: Duration,
    done: Instant,
    halted: bool,
    achieved: bool,
    rounds: u64,
}

/// Runs one conquest, wrapped in spans when this thread records.
fn conquer(c: &Conquest) -> (bool, bool, u64) {
    let goal = toy::MagicWordGoal::new(c.world_word());
    let mut rng = GocRng::seed_from_u64(c.rng_seed);
    let world = goal.spawn_world(&mut rng);
    let server: BoxedServer = Box::new(toy::RelayServer::with_shift(c.shift));
    let build_user = |e: Box<dyn StrategyEnumerator>, s: BoxedSensing| -> LevinUniversalUser {
        if c.round_robin {
            LevinUniversalUser::round_robin(e, s, c.base)
        } else {
            LevinUniversalUser::new(e, s, c.base)
        }
    };
    let verdict = if trace::on() {
        let enumerator = TracedEnumerator(Box::new(c.class()));
        let user = build_user(
            Box::new(enumerator),
            Box::new(TracedSensing(Box::new(toy::ack_sensing()))),
        );
        let mut exec = Execution::new(
            TracedWorld(world),
            Box::new(TracedServer(server)),
            Box::new(TracedUser(Box::new(user))),
            rng,
        );
        let t = trace::span(Layer::Exec, || exec.run(HORIZON));
        evaluate_finite(&goal, &t)
    } else {
        let user = build_user(Box::new(c.class()), Box::new(toy::ack_sensing()));
        let mut exec = Execution::new(world, server, Box::new(user), rng);
        let t = exec.run(HORIZON);
        evaluate_finite(&goal, &t)
    };
    (verdict.halted, verdict.achieved, verdict.rounds)
}

/// `(completion time, wall ms)` of each conquest, for [`common::windowed`].
fn ops(records: &[Record]) -> Vec<(Instant, f64)> {
    records
        .iter()
        .map(|r| (r.done, common::ms(r.wall)))
        .collect()
}

fn timed(c: Conquest) -> Record {
    let t0 = Instant::now();
    let (halted, achieved, rounds) = conquer(&c);
    let done = Instant::now();
    Record {
        conquest: c,
        wall: done - t0,
        done,
        halted,
        achieved,
        rounds,
    }
}

// ---------------------------------------------------------------------------
// Reference: the settle round the Levin schedule implies.
// ---------------------------------------------------------------------------

/// A candidate program run alone on an empty inbox, one round at a time,
/// until it halts or reaches a register fixed point (after which every
/// round repeats the last one).
struct Solo {
    machine: Machine,
    outputs: Vec<Vec<u8>>,
    steady: bool,
    halted_at: Option<usize>,
}

impl Solo {
    fn new(machine: Machine) -> Solo {
        Solo {
            machine,
            outputs: Vec::new(),
            steady: false,
            halted_at: None,
        }
    }

    /// Output of round `j` and whether the candidate halted in it.
    fn round(&mut self, j: usize) -> (&[u8], bool) {
        while j >= self.outputs.len() && !self.steady && self.halted_at.is_none() {
            let before = *self.machine.regs();
            let mut io = RoundIo::default();
            self.machine.round(&mut io);
            self.outputs.push(io.out_a);
            if self.machine.halted().is_some() {
                self.halted_at = Some(self.outputs.len() - 1);
            } else if *self.machine.regs() == before {
                self.steady = true;
            }
        }
        let k = j.min(self.outputs.len() - 1);
        (&self.outputs[k], self.halted_at == Some(k))
    }
}

/// The settle round (rounds executed) the schedule implies for `c`.
fn expected_rounds(c: &Conquest) -> Option<u64> {
    let class = c.class();
    let n = class.total()?;
    let mut schedule = if c.round_robin {
        BudgetSchedule::round_robin(c.base, n)
    } else {
        BudgetSchedule::levin(c.base, Some(n))
    };
    let mut solos: HashMap<usize, Solo> = HashMap::new();
    let mut start = 0u64;
    while start < HORIZON {
        let (index, budget) = schedule.next()?;
        let solo = solos
            .entry(index)
            .or_insert_with(|| Solo::new(Machine::with_fuel(class.program(index), c.fuel)));
        let mut used = budget;
        for j in 0..budget {
            let (out, halted) = solo.round(j as usize);
            if out == c.said.as_slice() {
                return Some(start + j + ROUND_TRIP);
            }
            if halted {
                used = j + 1;
                break;
            }
        }
        start += used;
    }
    None
}

/// Counts the records that fail their checks.
fn check(records: &[Record], inject_mismatch: bool) -> u64 {
    let mut expected: HashMap<Conquest, Option<u64>> = HashMap::new();
    let mut failed = 0;
    for (i, r) in records.iter().enumerate() {
        let key = Conquest {
            rng_seed: 0,
            ..r.conquest.clone()
        };
        let want = *expected
            .entry(key)
            .or_insert_with(|| expected_rounds(&r.conquest));
        let got = if inject_mismatch && i == 0 {
            r.rounds + 1
        } else {
            r.rounds
        };
        let false_halt = r.halted && !r.achieved;
        if !r.achieved || false_halt || want != Some(got) {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "perfbench: conquest {i} failed: halted {} achieved {} rounds {got} expected {want:?} ({:?})",
                    r.halted, r.achieved, r.conquest
                );
            }
        }
    }
    failed
}

fn obs_delta(before: &[(String, u64)], after: &[(String, u64)], name: &str) -> f64 {
    // A counter the library no longer registers reads as 0.
    let get = |v: &[(String, u64)]| v.iter().find(|(n, _)| n == name).map_or(0, |(_, x)| *x);
    get(after).saturating_sub(get(before)) as f64
}

fn obs_value(after: &[(String, u64)], name: &str) -> f64 {
    after
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, x)| *x as f64)
}

/// Runs conquests from `plan` for `budget`, optionally traced, marking
/// the process's CPU time at each window boundary.
fn measure(plan: &mut Plan, budget: Duration, traced: bool) -> (Vec<Record>, CpuClock) {
    let mut records = Vec::new();
    let mut clock = CpuClock::new("self");
    let t0 = Instant::now();
    let window = budget / common::WINDOWS;
    let mut next_mark = t0 + window;
    while t0.elapsed() < budget || records.is_empty() {
        if Instant::now() >= next_mark {
            clock.mark();
            next_mark += window;
        }
        let c = plan.conquest();
        let rec = if traced {
            trace::set_op(plan.next);
            let (rec, _records) = obs::capture(|| trace::span(Layer::Op, || timed(c)));
            rec
        } else {
            timed(c)
        };
        records.push(rec);
    }
    clock.mark();
    (records, clock)
}

/// The set-up: class construction and warm-up conquests. Run first in a
/// fresh process, it also pays the process's cold costs: the worker pool,
/// the arena, lazy statics. The warm-up inputs do not depend on the seed,
/// so neither does the set-up work. settle-vm warms up below the measured
/// fuel range, so its measured conquests still interpret; settle-cached
/// warms up the measured class with each goal word, so its measured
/// conquests start from a warm cache.
pub fn set_up(kind: Kind) {
    let warmups: Vec<Conquest> = match kind {
        Kind::Vm => {
            let mut c = Plan::new(kind, 0).conquest();
            c.alphabet = VM_ORDERS[1]
                .iter()
                .map(|&i| [0x0b, 0x01, VM_LETTERS[0]][i])
                .collect();
            c.said = vec![VM_LETTERS[0]];
            c.fuel = VM_FUEL_BASE - 1;
            vec![c]
        }
        Kind::Cached => CACHED_WORDS
            .iter()
            .map(|w| {
                let mut c = Plan::new(kind, 0).conquest();
                c.said = w.to_vec();
                c.shift = 0;
                c
            })
            .collect(),
    };
    for c in &warmups {
        conquer(c);
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, inject_mismatch: bool) -> Outcome {
    set_up(kind);
    let mut plan = Plan::new(kind, seed);
    let budget = Duration::from_secs_f64(seconds);
    let (records, clock) = if traced {
        let half = budget / 2;
        let (untraced, clock) = measure(&mut plan, half, false);
        let cpu_us = common::windowed(&ops(&untraced), &clock).cpu_us_per_op;
        let before = obs::metrics_snapshot(None);
        trace::start();
        let built_before = trace::candidates_built();
        let (traced_records, _) = measure(&mut plan, half, true);
        let after = obs::metrics_snapshot(None);
        let totals = trace::totals();
        let built = trace::candidates_built() - built_before;
        let _ = trace::finish("main");
        let failed = check(&untraced, inject_mismatch) + check(&traced_records, false);
        let attempted = (untraced.len() + traced_records.len()) as u64;
        let mut metrics = layer_metrics(
            &untraced,
            &traced_records,
            built,
            &totals,
            &before,
            &after,
            failed,
            attempted,
        );
        metrics.push(metric("cpu_us_per_op", cpu_us, "us"));
        return Outcome {
            attempted,
            failed,
            checks_ran: true,
            metrics,
            display: Vec::new(),
        };
    } else {
        measure(&mut plan, budget, false)
    };
    let rss = common::peak_rss_mb("self").unwrap_or(0.0);
    let failed = check(&records, inject_mismatch);
    let n = records.len() as f64;
    let w = common::windowed(&ops(&records), &clock);
    let (p50, p90, cpu_us, per_s) = (w.p50, w.p90, w.cpu_us_per_op, w.ops_per_s);
    let metrics = vec![
        metric("op_ms_p50", p50, "ms"),
        metric("op_ms_p90", p90, "ms"),
        metric("ops_per_s", per_s, "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    let display = vec![
        metric("settle_ms_p50", p50, "ms"),
        metric("settle_ms_p90", p90, "ms"),
        metric("settle_cpu_ms", cpu_us / 1e3, "ms"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("failed_ratio", failed as f64 / n, "ratio"),
    ];
    Outcome {
        attempted: records.len() as u64,
        failed,
        checks_ran: true,
        metrics,
        display,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    untraced: &[Record],
    traced: &[Record],
    candidates_built: u64,
    totals: &[(Layer, trace::Totals)],
    before: &[(String, u64)],
    after: &[(String, u64)],
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    let ops = traced.len() as f64;
    let t = |l: Layer| {
        totals
            .iter()
            .find(|(x, _)| *x == l)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    };
    let per_op = |v: u64| v as f64 / ops;
    let d = |n: &str| obs_delta(before, after, n) / ops;
    let cand = t(Layer::Candidate);
    let hit = obs_delta(before, after, "vm.cache.hit");
    let miss = obs_delta(before, after, "vm.cache.miss");
    let jobs = obs_delta(before, after, "vm.prewarm.jobs");
    let reuse = obs_delta(before, after, "vm.arena.reuse");
    let alloc = obs_delta(before, after, "vm.arena.alloc");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean_ms =
        |r: &[Record]| r.iter().map(|x| common::ms(x.wall)).sum::<f64>() / r.len().max(1) as f64;
    let layers = [
        Layer::Exec,
        Layer::Universal,
        Layer::Enumerate,
        Layer::Candidate,
        Layer::Sensing,
        Layer::WorldServer,
    ];
    let self_sum: u64 = layers.iter().map(|&l| t(l).self_ns).sum();
    let op_wall = t(Layer::Op).total_ns;
    vec![
        metric("vm.candidate_ns", per_op(cand.self_ns), "ns/op"),
        metric("vm.candidate_steps", per_op(cand.count), "count/op"),
        metric(
            "vm.candidate_ns_per_step",
            ratio(cand.self_ns as f64, cand.count as f64),
            "ns",
        ),
        metric("enumerate.ns", per_op(t(Layer::Enumerate).self_ns), "ns/op"),
        metric("enumerate.candidates", per_op(candidates_built), "count/op"),
        metric(
            "universal.self_ns",
            per_op(t(Layer::Universal).self_ns),
            "ns/op",
        ),
        metric("universal.switches", d("universal.switches"), "count/op"),
        metric(
            "universal.lookahead.refills",
            d("universal.lookahead.refills"),
            "count/op",
        ),
        metric("exec.self_ns", per_op(t(Layer::Exec).self_ns), "ns/op"),
        metric("exec.rounds", d("exec.rounds"), "count/op"),
        metric("sensing.ns", per_op(t(Layer::Sensing).self_ns), "ns/op"),
        metric(
            "toy.world_server_ns",
            per_op(t(Layer::WorldServer).self_ns),
            "ns/op",
        ),
        metric("vm.cache.hit", hit / ops, "count/op"),
        metric("vm.cache.miss", miss / ops, "count/op"),
        metric("vm.cache.hit_ratio", ratio(hit, hit + miss), "ratio"),
        metric("vm.cache.evict", d("vm.cache.evict"), "count/op"),
        metric(
            "vm.cache.entries_peak",
            obs_value(after, "vm.cache.entries_peak"),
            "count",
        ),
        metric("vm.prewarm.jobs", jobs / ops, "count/op"),
        metric("vm.prewarm.hits", d("vm.prewarm.hits"), "count/op"),
        metric(
            "vm.prewarm.fixedpoint",
            d("vm.prewarm.fixedpoint"),
            "count/op",
        ),
        metric(
            "vm.prewarm.useful_ratio",
            ratio(obs_delta(before, after, "vm.prewarm.hits"), jobs),
            "ratio",
        ),
        metric("par.pool.jobs", d("par.pool.jobs"), "count/op"),
        metric("par.pool.spawned", d("par.pool.spawned"), "count/op"),
        metric("par.pool.discarded", d("par.pool.discarded"), "count/op"),
        metric("vm.arena.reuse_ratio", ratio(reuse, reuse + alloc), "ratio"),
        metric(
            "trace.overhead_ratio",
            ratio(mean_ms(traced), mean_ms(untraced)),
            "ratio",
        ),
        metric(
            "trace.self_coverage",
            ratio(self_sum as f64, op_wall as f64),
            "ratio",
        ),
        metric(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

//! The candidate-evaluation cache: memoised VM rounds for universal search.
//!
//! The universal users re-run the *same* candidate programs over and over —
//! Levin's schedule restarts every candidate in every phase with a doubled
//! budget, the compact user's triangular schedule revisits every index
//! Θ(index) times, and the trial harness repeats whole executions across
//! seeds. A VM strategy is a **deterministic transducer** started from
//! all-zero registers: everything about its round `k` — the outboxes, the
//! halt state, and the machine state it leaves behind (the eight registers
//! and the cumulative retired-instruction count) — is fully determined by
//! the program bytes, the per-round fuel budget, and the sequence of inbox
//! contents for rounds `0..=k`. That triple is therefore a sound
//! memoisation key, and this module keeps a process-wide map from it to the
//! round's outputs *and* post-round state.
//!
//! [`VmUser`](crate::adapter::VmUser) consults the cache on every step. On a
//! hit it copies the recorded outboxes and moves its machine to the recorded
//! post-round state in O(1), exactly where executing the round would have
//! left it; on a miss it executes the round and records it. Either way the
//! user — outputs, halt state, registers and retired count — is
//! bit-identical to an uncached run after every round.
//!
//! Keys store a 64-bit hash of the program bytes plus a 128-bit rolling hash
//! of the interaction prefix; entries additionally pin the full program
//! bytes, which are compared on lookup, so a program-hash collision can
//! never serve the wrong entry. A prefix-hash collision *within one
//! program's entries* is the one probabilistic failure mode; at 128 bits it
//! is negligible against the ≤ 2⁴⁰ rounds any experiment here executes.
//!
//! Entries are compact: the program, both outboxes and any halt payload are
//! packed into one byte run stored inline when it is short (the enumerated
//! candidates of a universal search are a few bytes long), so a typical
//! entry owns no heap allocation. Each shard holds at most [`SHARD_CAP`]
//! entries — the load-factor boundary of a 2¹⁶-bucket table — and evicts
//! without leaving tombstones, so a full shard never outgrows that table.
//!
//! The cache is enabled by default and shared across threads (the parallel
//! trial harness warms it for every worker). `GOC_VM_CACHE=0` disables it
//! process-wide; [`VmUser::with_cache_enabled`](crate::adapter::VmUser) pins
//! it per instance. [`stats`] / [`reset_stats`] expose hit counters for the
//! bench suite's JSONL records.

use crate::instr::REG_COUNT;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of independent cache shards (reduces lock contention when the
/// parallel harness runs many trials at once). Must be a power of two.
const SHARD_COUNT: usize = 16;

/// Per-shard entry cap: 7/8 of 2¹⁶, the most entries a 2¹⁶-bucket
/// `HashMap` holds before it doubles. A shard at the cap evicts roughly
/// half of its entries (see [`insert`]) instead of growing, which bounds
/// memory at `SHARD_COUNT` such tables.
const SHARD_CAP: usize = (1 << 16) / 8 * 7;

/// The memoised outcome of one VM round: its outboxes, its halt state, and
/// the machine state it leaves behind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedRound {
    /// Bytes the round appended to the A (peer) outbox.
    pub out_a: Vec<u8>,
    /// Bytes the round appended to the B (world) outbox.
    pub out_b: Vec<u8>,
    /// `Some(final output)` if the machine halted during (or before) this
    /// round.
    pub halted: Option<Vec<u8>>,
    /// The machine's registers after the round.
    pub regs: [u64; REG_COUNT],
    /// The machine's cumulative retired-instruction count after the round
    /// (counted from the machine's first round, not just this one).
    pub retired: u64,
}

impl CachedRound {
    /// A borrowed view of this round, as the cache stores and serves it.
    pub(crate) fn view(&self) -> RoundRef<'_> {
        RoundRef {
            out_a: &self.out_a,
            out_b: &self.out_b,
            halted: self.halted.as_deref(),
            regs: &self.regs,
            retired: self.retired,
        }
    }
}

/// A borrowed [`CachedRound`]: what the round's writers record from (a live
/// user's machine, a prewarm clone) and what a hit is served as, without copying the
/// byte fields into owned buffers first.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundRef<'a> {
    pub(crate) out_a: &'a [u8],
    pub(crate) out_b: &'a [u8],
    pub(crate) halted: Option<&'a [u8]>,
    pub(crate) regs: &'a [u64; REG_COUNT],
    pub(crate) retired: u64,
}

impl RoundRef<'_> {
    fn to_cached(self) -> CachedRound {
        CachedRound {
            out_a: self.out_a.to_vec(),
            out_b: self.out_b.to_vec(),
            halted: self.halted.map(<[u8]>::to_vec),
            regs: *self.regs,
            retired: self.retired,
        }
    }
}

/// Cache key: `(program bytes, fuel, interaction prefix)`, with the program
/// and prefix in hashed form (see module docs for the soundness argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RoundKey {
    /// FNV-1a over the program bytes ([`program_hash`]).
    pub program_hash: u64,
    /// Per-round fuel budget of the machine.
    pub fuel: u32,
    /// Rolling 128-bit hash of every inbox up to and including this round
    /// ([`extend_prefix`]).
    pub prefix_hash: u128,
}

/// Packed byte runs up to this length are stored inside the entry.
const INLINE: usize = 23;

/// [`Entry::lens`] marker for "the machine has not halted".
const NOT_HALTED: u32 = u32::MAX;

/// An entry's packed byte run: inline when short, one heap allocation
/// otherwise. The inline buffer may be longer than the run; `lens` says
/// where it ends.
enum Packed {
    Inline([u8; INLINE]),
    Heap(Box<[u8]>),
}

/// One memoised round as the cache holds it: a [`CachedRound`] plus its
/// program, with every byte field packed into one run.
struct Entry {
    regs: [u64; REG_COUNT],
    retired: u64,
    /// Lengths of the program, the A outbox, the B outbox and the halt
    /// payload, packed back to back in that order in `bytes`; the last is
    /// [`NOT_HALTED`] for a running machine. The full program bytes are
    /// compared on lookup to rule out program-hash collisions.
    lens: [u32; 4],
    bytes: Packed,
}

impl Entry {
    /// Packs `round` of `program`; `None` if a byte field is too long to
    /// describe (such a round is simply not memoised).
    fn new(program: &[u8], round: RoundRef<'_>) -> Option<Entry> {
        let len = |part: &[u8]| u32::try_from(part.len()).ok().filter(|&n| n != NOT_HALTED);
        let lens = [
            len(program)?,
            len(round.out_a)?,
            len(round.out_b)?,
            match round.halted {
                Some(out) => len(out)?,
                None => NOT_HALTED,
            },
        ];
        let parts = [program, round.out_a, round.out_b, round.halted.unwrap_or_default()];
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let bytes = if total <= INLINE {
            let mut buf = [0u8; INLINE];
            let mut at = 0;
            for part in parts {
                buf[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            Packed::Inline(buf)
        } else {
            Packed::Heap(parts.concat().into_boxed_slice())
        };
        Some(Entry { regs: *round.regs, retired: round.retired, lens, bytes })
    }

    /// The program, A outbox, B outbox and halt payload (empty when not
    /// halted), split out of the packed run.
    fn parts(&self) -> [&[u8]; 4] {
        let mut rest: &[u8] = match &self.bytes {
            Packed::Inline(buf) => buf,
            Packed::Heap(buf) => buf,
        };
        self.lens.map(|n| {
            let n = if n == NOT_HALTED { 0 } else { n as usize };
            let (part, tail) = rest.split_at(n);
            rest = tail;
            part
        })
    }

    /// The entry's round, or `None` if it was recorded for a different
    /// program than `program` (a program-hash collision).
    fn view_for(&self, program: &[u8]) -> Option<RoundRef<'_>> {
        let [recorded, out_a, out_b, halt] = self.parts();
        (recorded == program).then_some(RoundRef {
            out_a,
            out_b,
            halted: (self.lens[3] != NOT_HALTED).then_some(halt),
            regs: &self.regs,
            retired: self.retired,
        })
    }
}

#[derive(Default)]
struct ShardState {
    map: HashMap<RoundKey, Entry>,
    /// Bumped on every half-eviction; selects which hash bit decides who
    /// survives, so repeated evictions don't starve the same keys.
    evict_epoch: u32,
}

struct Shard {
    state: Mutex<ShardState>,
}

struct Cache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static CACHE: OnceLock<Cache> = OnceLock::new();

fn cache() -> &'static Cache {
    CACHE.get_or_init(|| Cache {
        shards: (0..SHARD_COUNT)
            .map(|_| Shard { state: Mutex::new(ShardState::default()) })
            .collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Locks a shard, recovering from poisoning. A `par` worker that panics
/// mid-operation poisons the shard it holds; the map itself is never left
/// in a broken state by a panic here (HashMap operations are
/// panic-atomic for our key/value types, and entries are verified against
/// the full program bytes on every read), so the poison flag carries no
/// information and unrelated trials must not cascade-panic on it.
fn lock_shard(shard: &Shard) -> std::sync::MutexGuard<'_, ShardState> {
    shard.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shard_of(key: &RoundKey) -> &'static Shard {
    let mix = key.program_hash ^ (key.prefix_hash as u64) ^ (key.prefix_hash >> 64) as u64;
    &cache().shards[(mix as usize) & (SHARD_COUNT - 1)]
}

/// Whether the process-wide cache is enabled (`GOC_VM_CACHE` unset or ≠ "0").
/// Read once and latched, so flipping the variable mid-process has no effect
/// — per-instance control is `VmUser::with_cache_enabled`.
pub fn enabled_by_env() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("GOC_VM_CACHE").map(|v| v != "0").unwrap_or(true))
}

/// FNV-1a over the program bytes — the `program_hash` component of
/// [`RoundKey`].
pub fn program_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The empty-interaction prefix hash (FNV-1a 128-bit offset basis).
pub const PREFIX_EMPTY: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// Folds one round's inboxes into the rolling prefix hash. Lengths are
/// hashed before contents so `([a,b], [])` and `([a], [b])` cannot collide
/// by concatenation.
pub fn extend_prefix(prefix: u128, in_a: &[u8], in_b: &[u8]) -> u128 {
    const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = prefix;
    let mut eat = |byte: u8| {
        h ^= byte as u128;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for part in [in_a, in_b] {
        for b in (part.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in part {
            eat(b);
        }
    }
    h
}

/// Looks up the memoised round for `key`, verifying the entry was recorded
/// for exactly `program` (hash collisions fall through to a miss). Updates
/// the hit/miss counters.
pub fn lookup(key: &RoundKey, program: &[u8]) -> Option<CachedRound> {
    serve(key, program, |round| round.to_cached())
}

/// [`lookup`] without the owned copy: on a hit, `f` reads the round under
/// the shard lock and its result is returned. Updates the hit/miss
/// counters the same way.
pub(crate) fn serve<R>(
    key: &RoundKey,
    program: &[u8],
    f: impl FnOnce(RoundRef<'_>) -> R,
) -> Option<R> {
    let state = lock_shard(shard_of(key));
    match state.map.get(key).and_then(|entry| entry.view_for(program)) {
        Some(round) => {
            cache().hits.fetch_add(1, Ordering::Relaxed);
            goc_core::obs_count_nd!("vm.cache.hit", 1u64);
            Some(f(round))
        }
        None => {
            cache().misses.fetch_add(1, Ordering::Relaxed);
            goc_core::obs_count_nd!("vm.cache.miss", 1u64);
            None
        }
    }
}

/// Mixes a key into one well-stirred word with a splitmix64 finalizer.
/// Each word gets its own odd multiplier before the XOR so the mix stays
/// key-dependent even for key families where the plain XOR (the one
/// [`shard_of`] uses) is constant within a shard; any single bit then
/// splits a shard's population roughly in half.
fn evict_mix(key: &RoundKey) -> u64 {
    let mut x = key.program_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (key.prefix_hash as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ ((key.prefix_hash >> 64) as u64).wrapping_mul(0x1656_67b1_9e37_79f9)
        ^ key.fuel as u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Records the outcome of one round under `key`. Overwriting an existing
/// entry is harmless (the function is deterministic, so the value is the
/// same — or belongs to a colliding program, which `lookup` re-verifies).
///
/// A shard at [`SHARD_CAP`] evicts roughly half of its entries — those
/// whose mixed hash has the epoch-selected bit set — instead of clearing
/// wholesale, so a long-running search keeps half of its warm entries
/// across the cap. Evicted entries only cost a re-execution on the next
/// miss; observable behaviour is unchanged.
pub fn insert(key: RoundKey, program: &[u8], round: &CachedRound) {
    record(key, program, round.view());
}

/// [`insert`] from a borrowed round, so writers record straight from their
/// machine's or lane's buffers.
pub(crate) fn record(key: RoundKey, program: &[u8], round: RoundRef<'_>) {
    let Some(entry) = Entry::new(program, round) else { return };
    let mut state = lock_shard(shard_of(&key));
    if state.map.len() >= SHARD_CAP {
        evict_half(&mut state);
    }
    state.map.insert(key, entry);
    goc_core::obs_gauge_max_nd!("vm.cache.entries_peak", state.map.len() as u64);
}

/// Drops the entries whose mixed hash has the epoch-selected bit set.
///
/// The survivors are drained out and re-inserted rather than filtered with
/// `retain`: removing in place leaves tombstones that keep counting against
/// the table's load, and once inserts use up the free slots a table more
/// than half full of live entries grows to twice its buckets instead of
/// rehashing in place. `drain` keeps the allocation and empties every slot,
/// so the shard stays in the table its cap fits.
fn evict_half(state: &mut ShardState) {
    let bit = state.evict_epoch % 64;
    state.evict_epoch = state.evict_epoch.wrapping_add(1);
    let before = state.map.len();
    let survivors: Vec<(RoundKey, Entry)> =
        state.map.drain().filter(|(k, _)| (evict_mix(k) >> bit) & 1 == 0).collect();
    state.map.extend(survivors);
    let evicted = before - state.map.len();
    goc_core::obs_count_nd!("vm.cache.evict", evicted as u64);
}

/// Snapshot of the cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to real execution.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`None` when there were none).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            return None;
        }
        Some(self.hits as f64 / total as f64)
    }
}

/// Current process-wide hit/miss counters.
pub fn stats() -> CacheStats {
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
    }
}

/// Zeroes the hit/miss counters (the benches call this before a measured
/// run so rates are per-experiment, not cumulative).
pub fn reset_stats() {
    let c = cache();
    c.hits.store(0, Ordering::Relaxed);
    c.misses.store(0, Ordering::Relaxed);
}

/// Drops every memoised round (counters are left alone).
pub fn clear() {
    for shard in &cache().shards {
        lock_shard(shard).map.clear();
    }
}

/// Total number of memoised rounds currently held, across all shards.
pub fn entry_count() -> usize {
    cache().shards.iter().map(|shard| lock_shard(shard).map.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; tests that assert on hit/miss or
    /// occupancy serialize here so the eviction test cannot drop another
    /// test's entry between its insert and its lookup.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(p: u64, prefix: u128) -> RoundKey {
        RoundKey { program_hash: p, fuel: 256, prefix_hash: prefix }
    }

    fn round(tag: u8) -> CachedRound {
        CachedRound {
            out_a: vec![tag],
            out_b: vec![],
            halted: None,
            regs: [tag as u64; REG_COUNT],
            retired: tag as u64 * 3,
        }
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let _g = test_guard();
        let k = key(program_hash(b"prog-x"), PREFIX_EMPTY);
        insert(k, b"prog-x", &round(7));
        assert_eq!(lookup(&k, b"prog-x"), Some(round(7)));
    }

    #[test]
    fn program_hash_collision_is_a_miss_not_a_wrong_hit() {
        let _g = test_guard();
        // Same key, different recorded program bytes: the byte comparison
        // must refuse to serve the entry.
        let k = key(0x1234, PREFIX_EMPTY ^ 0x5555);
        insert(k, b"real", &round(1));
        assert_eq!(lookup(&k, b"impostor"), None);
        assert_eq!(lookup(&k, b"real"), Some(round(1)));
    }

    #[test]
    fn poisoned_shard_recovers_instead_of_cascading() {
        let _g = test_guard();
        let k = key(program_hash(b"poison-prog"), PREFIX_EMPTY ^ 0xabcd);
        insert(k, b"poison-prog", &round(9));
        // Poison the shard: a thread panics while holding its lock, the
        // way a panicking `par` worker would mid-`insert`.
        let shard = shard_of(&k);
        let _ = std::thread::spawn(move || {
            let _held = shard.state.lock().unwrap();
            panic!("poisoning the shard on purpose");
        })
        .join();
        assert!(shard.state.is_poisoned());
        // Every entry point must keep working on the poisoned shard.
        assert_eq!(lookup(&k, b"poison-prog"), Some(round(9)));
        let k2 = key(program_hash(b"poison-prog"), extend_prefix(PREFIX_EMPTY ^ 0xabcd, b"x", b""));
        insert(k2, b"poison-prog", &round(10));
        assert_eq!(lookup(&k2, b"poison-prog"), Some(round(10)));
        let _ = entry_count();
        clear();
        assert_eq!(lookup(&k, b"poison-prog"), None);
    }

    #[test]
    fn full_shard_evicts_half_not_everything() {
        let _g = test_guard();
        clear();
        // All keys land in one shard: `shard_of` mixes the three hash
        // words, so keep program_hash equal to the low word of the prefix
        // — the XOR cancels and every key picks shard 0.
        let shard_pinned = |i: u64| {
            let prefix = (i + 1) as u128; // low 64 bits only
            RoundKey { program_hash: i + 1, fuel: 256, prefix_hash: prefix }
        };
        for i in 0..SHARD_CAP as u64 {
            insert(shard_pinned(i), b"evict-prog", &round((i % 251) as u8));
        }
        assert_eq!(entry_count(), SHARD_CAP);
        // The next insert trips the cap: roughly half survives (plus the
        // new entry), instead of the old wholesale clear.
        insert(shard_pinned(SHARD_CAP as u64), b"evict-prog", &round(1));
        let after = entry_count();
        assert!(after < SHARD_CAP, "no eviction happened: {after}");
        assert!(
            after > SHARD_CAP / 4 && after <= SHARD_CAP / 2 + SHARD_CAP / 4,
            "eviction should keep roughly half, kept {after} of {SHARD_CAP}"
        );
        // The just-inserted entry always survives its own eviction.
        assert_eq!(lookup(&shard_pinned(SHARD_CAP as u64), b"evict-prog"), Some(round(1)));
        // And survivors are still served (sample for at least one hit).
        let survivors = (0..64).filter(|&i| lookup(&shard_pinned(i), b"evict-prog").is_some()).count();
        assert!(survivors > 0, "no sampled survivor found after half-eviction");
        clear();
    }

    #[test]
    fn full_shards_stay_in_their_table() {
        let _g = test_guard();
        clear();
        let pinned =
            |i: u64| RoundKey { program_hash: i + 1, fuel: 256, prefix_hash: (i + 1) as u128 };
        let shard = shard_of(&pinned(0));
        // Several fill/evict cycles through one shard: neither the cap nor
        // the holes eviction leaves may ever make the table outgrow the
        // bucket budget the cap was chosen to fit.
        for i in 0..4 * SHARD_CAP as u64 {
            insert(pinned(i), b"table-prog", &round((i % 251) as u8));
            if i % 4096 == 0 {
                let capacity = lock_shard(shard).map.capacity();
                assert!(capacity <= SHARD_CAP, "shard grew to capacity {capacity} at insert {i}");
            }
        }
        let state = lock_shard(shard);
        assert!(state.map.len() <= SHARD_CAP);
        assert!(state.map.capacity() <= SHARD_CAP, "capacity {}", state.map.capacity());
        drop(state);
        clear();
    }

    #[test]
    fn entries_roundtrip_inline_and_spilled_bytes() {
        let _g = test_guard();
        let long: Vec<u8> = (0..=255).collect();
        let cases = [
            (b"p".to_vec(), vec![], vec![], None),
            (b"p".to_vec(), b"ab".to_vec(), b"c".to_vec(), Some(vec![])),
            (b"p".to_vec(), vec![], b"ok".to_vec(), Some(b"ok".to_vec())),
            (long.clone(), b"x".to_vec(), vec![], None),
            (b"q".to_vec(), long.clone(), long.clone(), Some(long.clone())),
        ];
        for (i, (program, out_a, out_b, halted)) in cases.into_iter().enumerate() {
            let recorded = CachedRound {
                out_a,
                out_b,
                halted,
                regs: [i as u64, u64::MAX, 0, 1, 2, 3, 4, 0x100],
                retired: u64::MAX - i as u64,
            };
            let k = key(program_hash(&program), extend_prefix(PREFIX_EMPTY, &[i as u8], b"rt"));
            insert(k, &program, &recorded);
            assert_eq!(lookup(&k, &program), Some(recorded), "case {i}");
            let mut other = program.clone();
            other.push(0);
            assert_eq!(lookup(&k, &other), None, "case {i}: longer program must miss");
        }
    }

    #[test]
    fn evictions_are_counted_in_the_metrics_registry() {
        let _g = test_guard();
        clear();
        let nd_total = |name: &str| {
            goc_core::obs::metrics_snapshot(Some(goc_core::obs::Scope::Process))
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        let before = nd_total("vm.cache.evict");
        let ((), _records) = goc_core::obs::capture(|| {
            let pinned = |i: u64| RoundKey {
                program_hash: i + 1,
                fuel: 256,
                prefix_hash: (i + 1) as u128,
            };
            for i in 0..=SHARD_CAP as u64 {
                insert(pinned(i), b"evict-metric-prog", &round(2));
            }
        });
        let evicted = nd_total("vm.cache.evict") - before;
        assert!(
            evicted > SHARD_CAP as u64 / 4,
            "eviction counter should record roughly half a shard, got {evicted}"
        );
        clear();
    }

    #[test]
    fn prefix_extension_separates_channel_boundaries() {
        let ab = extend_prefix(PREFIX_EMPTY, b"ab", b"");
        let a_b = extend_prefix(PREFIX_EMPTY, b"a", b"b");
        let empty = extend_prefix(PREFIX_EMPTY, b"", b"");
        assert_ne!(ab, a_b);
        assert_ne!(ab, empty);
        // And it is a function of the whole history, not just the last round.
        assert_ne!(extend_prefix(ab, b"", b""), extend_prefix(a_b, b"", b""));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        reset_stats();
        let k = key(program_hash(b"stats-prog"), extend_prefix(PREFIX_EMPTY, b"s", b""));
        assert_eq!(lookup(&k, b"stats-prog"), None);
        insert(k, b"stats-prog", &round(3));
        assert!(lookup(&k, b"stats-prog").is_some());
        let s = stats();
        assert!(s.misses >= 1 && s.hits >= 1, "{s:?}");
        assert!(s.hit_rate().unwrap() > 0.0);
    }
}

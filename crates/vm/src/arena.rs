//! The candidate arena: recycled buffers for spawn/eliminate churn.
//!
//! The universal users spawn and eliminate candidates constantly — every
//! schedule slot builds a fresh [`VmUser`](crate::adapter::VmUser) (program
//! bytes + a [`RoundIo`] with four outbox/inbox `Vec`s) and drops the
//! previous one. Those buffers come from and return to a thread-local
//! free-list instead of the global allocator: one arena per enumeration
//! thread, recycled on elimination, so steady-state candidate turnover costs
//! zero heap traffic.
//!
//! Lifetime safety: recycling happens on candidate *drop*, and the
//! [`cache`](crate::cache) pins its **own** copy of every program it
//! records (`Entry.program: Box<[u8]>`), so recycling an eliminated
//! candidate's buffers can never dangle or corrupt a cached round — the
//! cache never aliases arena memory (see DESIGN.md §11).
//!
//! The free-lists are bounded ([`MAX_POOLED`] buffers, each at most
//! [`MAX_VEC_CAP`] bytes of capacity) so a burst of huge messages cannot pin
//! unbounded memory. Effectiveness is observable through the `vm.arena.reuse`
//! / `vm.arena.alloc` process-scope counters.

use crate::machine::RoundIo;
use std::cell::RefCell;

/// Per-thread cap on pooled buffers.
const MAX_POOLED: usize = 1024;

/// Buffers with more capacity than this are dropped rather than pooled.
const MAX_VEC_CAP: usize = 1 << 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a cleared byte buffer with at least `len` capacity from the arena
/// (allocating only when the free-list is empty).
pub fn take_bytes(len: usize) -> Vec<u8> {
    let pooled = POOL.with(|p| p.borrow_mut().pop());
    match pooled {
        Some(mut v) => {
            goc_core::obs_count_nd!("vm.arena.reuse", 1u64);
            v.clear();
            v.reserve(len);
            v
        }
        None => {
            goc_core::obs_count_nd!("vm.arena.alloc", 1u64);
            Vec::with_capacity(len)
        }
    }
}

/// Returns a byte buffer to the arena (dropped when over the caps).
pub fn put_bytes(v: Vec<u8>) {
    if v.capacity() == 0 || v.capacity() > MAX_VEC_CAP {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(v);
        }
    });
}

/// A `RoundIo` whose four boxes are arena-backed.
pub fn take_io() -> RoundIo {
    RoundIo {
        in_a: take_bytes(0),
        in_b: take_bytes(0),
        out_a: take_bytes(0),
        out_b: take_bytes(0),
    }
}

/// Returns a `RoundIo`'s buffers to the arena, leaving `io` empty.
pub fn recycle_io(io: &mut RoundIo) {
    put_bytes(std::mem::take(&mut io.in_a));
    put_bytes(std::mem::take(&mut io.in_b));
    put_bytes(std::mem::take(&mut io.out_a));
    put_bytes(std::mem::take(&mut io.out_b));
}

/// Number of buffers currently pooled on this thread (test hook).
pub fn pooled_count() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_reuses_capacity() {
        let mut v = take_bytes(8);
        v.extend_from_slice(b"12345678");
        let cap = v.capacity();
        put_bytes(v);
        let before = pooled_count();
        assert!(before > 0);
        let v2 = take_bytes(4);
        assert_eq!(pooled_count(), before - 1);
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(4));
    }

    #[test]
    fn zero_capacity_and_oversized_buffers_are_not_pooled() {
        let before = pooled_count();
        put_bytes(Vec::new());
        assert_eq!(pooled_count(), before);
        put_bytes(Vec::with_capacity(MAX_VEC_CAP + 1));
        assert_eq!(pooled_count(), before);
    }

    #[test]
    fn recycle_io_returns_all_four_boxes() {
        let mut io = RoundIo::with_inputs(b"abc".as_slice(), b"de".as_slice());
        io.out_a.push(1);
        io.out_b.push(2);
        let before = pooled_count();
        recycle_io(&mut io);
        assert_eq!(pooled_count(), before + 4);
        assert!(io.in_a.is_empty() && io.out_b.is_empty());
    }
}

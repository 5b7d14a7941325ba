//! The per-thread switch between the production interpreter core and its
//! executable specification.
//!
//! [`Machine::round`] runs every round through the predecoded production
//! core. Inside [`with_dispatch(false, ..)`](with_dispatch) it runs the
//! original `match` loop instead — the specification the production core is
//! differentially tested against (`crates/vm/tests/dispatch_equivalence.rs`)
//! and priced against (the E14 and E16 benches). The two are observably
//! identical: outboxes, halt payloads, registers and retired-instruction
//! counts agree byte for byte. There is no environment variable; production
//! always runs the predecoded core.
//!
//! [`Machine::round`]: crate::machine::Machine::round

use std::cell::Cell;

thread_local! {
    static SPEC_LOOP: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread runs the production core (`true`, the default) or
/// the specification `match` loop (inside `with_dispatch(false, ..)`).
pub fn enabled() -> bool {
    !SPEC_LOOP.with(Cell::get)
}

/// Runs `f` on this thread with the production core (`true`) or the
/// specification `match` loop (`false`), restoring the previous choice
/// afterwards (also on panic).
pub fn with_dispatch<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPEC_LOOP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SPEC_LOOP.with(|c| c.replace(!enabled)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_dispatch_overrides_and_restores() {
        assert!(enabled(), "the production core is the default");
        with_dispatch(false, || {
            assert!(!enabled());
            with_dispatch(true, || assert!(enabled()));
            assert!(!enabled());
        });
        assert!(enabled());
    }
}

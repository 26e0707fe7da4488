//! One shutdown signal for the server's reactor loop.
//!
//! [`ShutdownFlag`] is the observable the reactor polls instead of
//! racing a signal against a blocking call: process-global when wired
//! to SIGINT/SIGTERM, or test-local so unit tests can trigger drains
//! without raising signals against their own test runner.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// plf-lint: ordering(SeqCst)
//
// Shutdown is a one-way latch raised from a signal handler and read
// from reactor loops; SeqCst keeps the handler/observer story trivial
// and the cost is one load per poll tick.

/// Latch raised by the signal handler installed in [`ShutdownFlag::global`].
static GLOBAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    GLOBAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// A one-way "please drain and exit" latch.
///
/// `Clone` hands out another observer of the same latch, for both
/// variants.
#[derive(Debug, Clone)]
pub enum ShutdownFlag {
    /// Backed by the process-wide latch that SIGINT/SIGTERM raise.
    Global,
    /// Backed by a private latch; raise it with [`ShutdownFlag::request`].
    Local(Arc<AtomicBool>),
}

impl ShutdownFlag {
    /// The process-global flag, installing the SIGINT/SIGTERM handler.
    ///
    /// Idempotent: re-installing the same handler is harmless, so every
    /// server entry point can call this without coordination.
    pub fn global() -> ShutdownFlag {
        // SAFETY: `signal` installs an async-signal handler that only
        // stores to an AtomicBool — an async-signal-safe operation —
        // and the handler function lives for the whole program.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        ShutdownFlag::Global
    }

    /// A fresh private flag, unobservable outside its clones.
    pub fn local() -> ShutdownFlag {
        ShutdownFlag::Local(Arc::new(AtomicBool::new(false)))
    }

    /// Has shutdown been requested?
    pub fn is_requested(&self) -> bool {
        match self {
            ShutdownFlag::Global => GLOBAL_SHUTDOWN.load(Ordering::SeqCst),
            ShutdownFlag::Local(flag) => flag.load(Ordering::SeqCst),
        }
    }

    /// Raise the latch by hand (tests, drain drills).
    ///
    /// Works on both variants; on `Global` it behaves exactly like a
    /// delivered SIGTERM.
    pub fn request(&self) {
        match self {
            ShutdownFlag::Global => GLOBAL_SHUTDOWN.store(true, Ordering::SeqCst),
            ShutdownFlag::Local(flag) => flag.store(true, Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_flag_latches_and_clones_share() {
        let flag = ShutdownFlag::local();
        let observer = flag.clone();
        assert!(!flag.is_requested());
        assert!(!observer.is_requested());
        flag.request();
        assert!(flag.is_requested());
        assert!(observer.is_requested());
    }

    #[test]
    fn distinct_local_flags_are_independent() {
        let a = ShutdownFlag::local();
        let b = ShutdownFlag::local();
        a.request();
        assert!(a.is_requested());
        assert!(!b.is_requested());
    }
}

//! SIGINT/SIGTERM → graceful drain, shared by the `hmtx-serve` and
//! `hmtx-router` binaries.
//!
//! The handler is async-signal-safe: it only flips a static atomic. The
//! readiness loop checks it every round and begins the drain itself,
//! outside signal context.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

// Minimal libc FFI (std links libc already).
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Installs the SIGINT/SIGTERM handlers. Call once at binary startup.
pub fn install_drain_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// True once SIGINT or SIGTERM has been received.
pub(crate) fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

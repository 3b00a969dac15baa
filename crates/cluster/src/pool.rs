//! Per-backend connection pooling.
//!
//! The protocol is serial per connection, so concurrency toward one backend
//! means multiple connections. A [`Pool`] keeps a small stack of idle
//! [`Client`]s per backend: router connection threads check one out per
//! forwarded request and check it back in on success. A connection that
//! errors is simply dropped — never returned to the pool — so a backend
//! restart flushes the stale sockets one failed forward at a time, and the
//! next checkout dials fresh.

use std::io;
use std::sync::Mutex;

use hmtx_server::Client;

/// Idle connections kept per backend. Beyond this, returned connections
/// are dropped (closed): a burst can still open as many as it needs, but
/// the steady state holds a bounded socket count.
pub const POOL_IDLE_CAP: usize = 8;

/// A stack of idle connections to one backend address.
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl Pool {
    /// A pool for `addr` (no connection is dialed until first checkout).
    #[must_use]
    pub fn new(addr: &str) -> Pool {
        Pool {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The backend address this pool dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// An idle connection if one is pooled, otherwise a fresh dial.
    ///
    /// # Errors
    ///
    /// Propagates connection errors from a fresh dial.
    pub fn checkout(&self) -> io::Result<Client> {
        match self.take_idle() {
            Some(client) => Ok(client),
            None => Client::connect(&self.addr),
        }
    }

    /// An idle pooled connection, if there is one (never dials).
    #[must_use]
    pub fn take_idle(&self) -> Option<Client> {
        self.idle.lock().unwrap().pop()
    }

    /// Returns a healthy connection to the pool (dropped if the pool is
    /// full). Do not check in a connection that has errored: its stream
    /// may hold a half-read frame, which would desynchronize the next
    /// checkout's request/response pairing. A connection holding bytes
    /// past its last response is dropped here for the same reason.
    pub fn checkin(&self, client: Client) {
        if client.buffered() > 0 {
            return;
        }
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < POOL_IDLE_CAP {
            idle.push(client);
        }
    }

    /// Drops every idle connection (used when a backend is marked down, so
    /// recovery starts from fresh sockets).
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// Idle connections currently pooled.
    #[cfg(test)]
    fn idle_len(&self) -> usize {
        self.idle.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_server::{ServerConfig, ServerHandle};

    #[test]
    fn checkout_reuses_checked_in_connections_and_caps_idle() {
        let handle = ServerHandle::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let pool = Pool::new(&handle.addr().to_string());
        assert_eq!(pool.idle_len(), 0);

        let mut first = pool.checkout().expect("dial");
        assert!(first.ping().expect("ping"));
        pool.checkin(first);
        assert_eq!(pool.idle_len(), 1);

        // Reuse: the pooled connection comes back out.
        let again = pool.checkout().expect("reuse");
        assert_eq!(pool.idle_len(), 0);
        pool.checkin(again);

        // The idle stack is bounded.
        let burst: Vec<Client> = (0..POOL_IDLE_CAP + 3).map(|_| pool.checkout().expect("dial")).collect();
        for c in burst {
            pool.checkin(c);
        }
        assert_eq!(pool.idle_len(), POOL_IDLE_CAP);

        pool.clear();
        assert_eq!(pool.idle_len(), 0);
        handle.drain();
        handle.wait();
    }
}

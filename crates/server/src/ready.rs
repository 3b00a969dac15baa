//! The poll(2)-based readiness loop: every accepted connection lives in one
//! event thread instead of pinning a thread of its own.
//!
//! The loop owns the listener, a self-pipe, and all connections. Each
//! iteration it:
//!
//! 1. builds a `pollfd` set — the wake pipe, the listener (until drain),
//!    every connection that wants to read (no response outstanding) or
//!    write (unflushed output buffer) — and sleeps in `poll` until
//!    something is ready or the earliest pending deadline expires;
//! 2. accepts new sockets, reads what arrived, and processes complete
//!    length-prefixed frames. Immediate requests (ping/stats/cache hits/
//!    busy/draining) answer inline; an admitted job parks the connection in
//!    a *pending* slot. A parked connection is not read further, so
//!    responses stay in request order and a slow job applies natural
//!    per-connection backpressure;
//! 3. resolves pending slots: workers publish results into the shared
//!    [`JobCell`](crate::server::JobCell) and poke the self-pipe, which
//!    wakes `poll`; expired deadlines answer `timeout` (the job keeps
//!    running and will cache);
//! 4. flushes output buffers as sockets accept bytes.
//!
//! Idle connections therefore cost a buffer and one `pollfd` entry — no
//! stack, no thread — which is what lets a node hold thousands of mostly
//! idle clients. The `unsafe` in this module is confined to the five libc
//! calls (`poll`, `pipe`, `fcntl`, `read`, `write`, `close`) in [`sys`];
//! everything above it is safe Rust over raw fds std already exposes.
//!
//! **Drain:** the listener leaves the poll set, job admission answers
//! `draining` (in `server.rs`), and once every pending slot has resolved
//! and every output buffer has flushed, the loop drops all connections
//! (clients see EOF) and exits.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::proto::FrameBuf;
use crate::server::{handle_frame, poll_pending, Inner, Wait};

/// Thin libc layer. `hmtx-server` is one of the two crates the workspace
/// exempts from `unsafe_code = "forbid"`; the exemption is spent here and
/// on the signal handler installer, nowhere else.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// `poll(2)`; returns the ready count, retrying on EINTR.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// A nonblocking pipe: `(read_fd, write_fd)`.
    pub fn nonblocking_pipe() -> io::Result<(c_int, c_int)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                unsafe {
                    close(fds[0]);
                    close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// Writes one byte, ignoring EAGAIN (a full pipe already wakes poll).
    pub fn write_byte(fd: c_int) {
        let b = [1u8];
        let _ = unsafe { write(fd, b.as_ptr().cast(), 1) };
    }

    /// Drains all readable bytes.
    pub fn drain_fd(fd: c_int) {
        let mut buf = [0u8; 64];
        while unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) } > 0 {}
    }

    pub fn close_fd(fd: c_int) {
        let _ = unsafe { close(fd) };
    }
}

/// The self-pipe: workers (and drain) poke the write end; the event loop
/// polls the read end. Both ends are nonblocking, so a wake is never more
/// than one syscall and never blocks a worker.
pub(crate) struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let (read_fd, write_fd) = sys::nonblocking_pipe()?;
        Ok(WakePipe { read_fd, write_fd })
    }

    /// Wakes the event loop (cheap, non-blocking, callable anywhere).
    pub(crate) fn wake(&self) {
        sys::write_byte(self.write_fd);
    }

    fn drain(&self) {
        sys::drain_fd(self.read_fd);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed.
    rbuf: FrameBuf,
    /// Framed responses queued to write; `wpos` marks how far the socket
    /// has taken.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The job this connection is parked on: resolved by worker publish
    /// (via the wake pipe) or by its deadline.
    pending: Option<Wait>,
    /// Peer sent EOF; finish writing, then close.
    peer_closed: bool,
    /// Protocol violation (oversized frame) or I/O error; close as soon as
    /// the output buffer drains.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: None,
            peer_closed: false,
            dead: false,
        }
    }

    fn has_unflushed(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Empties the output buffer once the socket has taken all of it, so
    /// the next response is appended at its start.
    fn compact_output(&mut self) {
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Flushes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads what arrived, marking EOF and errors on the way. A read that
    /// leaves buffer room took everything the socket held, so it returns
    /// without a second read to collect `EAGAIN`: poll is level-triggered
    /// and reports later bytes (or EOF) on its next round. A hostile peer
    /// cannot grow the buffer unboundedly: an over-[`crate::proto::MAX_FRAME`]
    /// prefix kills the connection before the buffer grows for it.
    fn fill(&mut self) {
        loop {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => {
                    self.peer_closed = true;
                    return;
                }
                Ok(_) if self.rbuf.tail_room() > 0 => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Should this connection be dropped now?
    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        self.peer_closed && self.pending.is_none() && !self.has_unflushed()
    }
}

/// Processes buffered frames until the connection parks on a job or runs
/// out of complete frames. An oversized length prefix is a protocol
/// violation: the connection dies, matching the blocking reader.
fn process_frames(inner: &Inner, conn: &mut Conn) {
    while conn.pending.is_none() && !conn.dead {
        conn.compact_output();
        match conn.rbuf.next_frame() {
            Ok(Some(frame)) => conn.pending = handle_frame(inner, &frame[4..], &mut conn.wbuf),
            Ok(None) => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Runs the readiness loop until drain completes. Takes the pre-bound
/// nonblocking listener; the wake pipe lives in `inner`.
pub(crate) fn event_loop(inner: &Inner, listener: &TcpListener) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_id: usize = 0;
    // Rebuilt every iteration: the poll set and its fd→connection mapping.
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    let mut poll_ids: Vec<Option<usize>> = Vec::new();

    loop {
        let draining = inner.draining.load(Ordering::SeqCst);
        if draining {
            let all_quiet = conns
                .values()
                .all(|c| c.pending.is_none() && !c.has_unflushed());
            if all_quiet {
                // Every waiter is answered and flushed: close everything
                // (clients see EOF) and let `wait()` reap the workers.
                return;
            }
        }

        pollfds.clear();
        poll_ids.clear();
        pollfds.push(sys::PollFd {
            fd: inner.wake.read_fd,
            events: sys::POLLIN,
            revents: 0,
        });
        poll_ids.push(None);
        if !draining {
            pollfds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            poll_ids.push(None);
        }
        let listener_slot = if draining { usize::MAX } else { 1 };

        let now = Instant::now();
        let mut timeout = Duration::from_millis(100);
        for (&id, conn) in &conns {
            let mut events: i16 = 0;
            if conn.pending.is_none() && !conn.peer_closed && !conn.dead {
                events |= sys::POLLIN;
            }
            if conn.has_unflushed() && !conn.dead {
                events |= sys::POLLOUT;
            }
            if let Some(p) = &conn.pending {
                timeout = timeout.min(p.deadline.saturating_duration_since(now));
            }
            if events != 0 {
                pollfds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                poll_ids.push(Some(id));
            }
        }

        let timeout_ms = i32::try_from(timeout.as_millis().min(100)).unwrap_or(100);
        if sys::poll_fds(&mut pollfds, timeout_ms).is_err() {
            // poll itself failing is unrecoverable for the loop; drain so
            // the process can exit instead of spinning.
            inner.begin_drain();
        }

        // Wake pipe: drain it; the actual work is the pending scan below.
        if pollfds[0].revents != 0 {
            inner.wake.drain();
        }

        // Accept everything waiting.
        if listener_slot < pollfds.len() && pollfds[listener_slot].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Small request/response frames must not sit in
                        // Nagle's buffer.
                        let _ = stream.set_nodelay(true);
                        conns.insert(next_id, Conn::new(stream));
                        next_id = next_id.wrapping_add(1);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Per-connection readiness.
        for (slot, pfd) in pollfds.iter().enumerate() {
            let Some(id) = poll_ids[slot] else { continue };
            if pfd.revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if pfd.revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            if pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0 {
                conn.fill();
                process_frames(inner, conn);
            }
            if pfd.revents & sys::POLLOUT != 0 {
                conn.flush();
            }
        }

        // Resolve pending jobs (worker publishes and deadline expiries).
        let now = Instant::now();
        for conn in conns.values_mut() {
            if let Some(wait) = conn.pending.take() {
                conn.compact_output();
                if poll_pending(inner, &wait, now, &mut conn.wbuf) {
                    // The connection may have pipelined more requests while
                    // parked; serve them now, in order.
                    process_frames(inner, conn);
                } else {
                    conn.pending = Some(wait);
                }
            }
            if conn.has_unflushed() && !conn.dead {
                // Opportunistic flush: most responses fit the socket buffer
                // and complete here, without waiting for the next poll.
                conn.flush();
            }
        }

        conns.retain(|_, conn| !conn.finished());
    }
}

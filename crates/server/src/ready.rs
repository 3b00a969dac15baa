//! The poll(2)-based readiness loop that serves both `hmtx-serve` and
//! `hmtx-router`: every accepted connection lives in one event thread
//! instead of pinning a thread of its own.
//!
//! The loop owns the listener and all connections; what a frame means is
//! the [`Service`]'s business. Each iteration it:
//!
//! 1. runs [`Service::tick`], then polls the [`Waker`], the listener
//!    (until drain, and below `MAX_CONNS` connections), every connection
//!    that wants to read (no slot pending) or write (unflushed output), and
//!    the socket each pending slot waits on, until something is ready or
//!    the earliest pending deadline or tick expires;
//! 2. accepts, reads, and hands complete frames to [`Service::handle`],
//!    which answers inline or parks the connection on a *pending* slot. A
//!    parked connection is not read further, so responses stay in request
//!    order and a slow request applies per-connection backpressure;
//! 3. resolves the slots whose socket turned ready, whose deadline passed,
//!    or that wait on no socket at all (the server's job slots, which
//!    workers complete through the waker);
//! 4. flushes output buffers as sockets accept bytes.
//!
//! An idle connection costs a buffer and one `pollfd` entry, no thread. The
//! only `unsafe` here is the `poll` call in `sys`. The loop begins drain
//! itself on SIGINT/SIGTERM. Once [`Service::draining`] holds, the listener
//! leaves the poll set, and once every slot has resolved and every buffer
//! has flushed, the loop drops all connections (clients see EOF) and
//! returns.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::proto::FrameBuf;

/// Thin libc layer. `hmtx-server` is one of the two crates the workspace
/// exempts from `unsafe_code = "forbid"`; the exemption is spent here and
/// on the signal handler installer, nowhere else.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};

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

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)`; returns the ready count, and 0 on EINTR, so a signal
    /// ends the wait and the loop sees the drain flag at once.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records, and poll(2) touches only its first `len`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        Err(err)
    }
}

/// Wakes the loop from other threads (workers, drain): a nonblocking
/// socket pair whose read end the loop polls, so a wake is one `write(2)`
/// that never blocks the caller.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// A fresh socket pair.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// Wakes the loop (a full buffer already wakes it, so `EAGAIN` is fine).
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// What the loop serves. It runs on the loop thread only, so it may own
/// state the loop drives (the router's idle backend sockets).
pub trait Service {
    /// A request that could not be answered inline.
    type Pending;

    /// Answers one complete frame (length prefix included) by appending
    /// response frames to `out`, or returns the slot the connection parks
    /// on until [`Service::resolve`] answers it.
    fn handle(&mut self, frame: &[u8], out: &mut Vec<u8>) -> Option<Self::Pending>;

    /// The socket `pending` waits on: writable while it has output queued,
    /// else readable. `None` (the default) waits on the waker and the
    /// deadline only, and is resolved every round.
    fn socket<'a>(&self, _pending: &'a Self::Pending) -> Option<&'a Peer> {
        None
    }

    /// When `pending` must be resolved even if its socket stays quiet.
    fn deadline(&self, pending: &Self::Pending) -> Option<Instant>;

    /// Advances `pending`; `true` once its answer is appended to `out`.
    fn resolve(&mut self, pending: &mut Self::Pending, now: Instant, out: &mut Vec<u8>) -> bool;

    /// Whether drain has begun.
    fn draining(&self) -> bool;

    /// Begins drain (the loop calls this on a signal and when `poll` fails).
    fn begin_drain(&self);

    /// The service's timed work, run once per round; returns when it is
    /// next due, which caps the round's poll. The default has none.
    fn tick(&mut self, _now: Instant) -> Option<Instant> {
        None
    }
}

/// A nonblocking socket with its framing buffers: each client connection,
/// and each of the router's backend sockets.
#[derive(Debug)]
pub struct Peer {
    stream: TcpStream,
    /// Bytes read but not yet framed.
    pub rbuf: FrameBuf,
    /// Bytes queued to write; [`Peer::flush`] empties it once sent.
    pub wbuf: Vec<u8>,
    /// How far the socket has taken `wbuf`.
    wpos: usize,
}

impl Peer {
    /// Wraps a nonblocking socket.
    #[must_use]
    pub fn new(stream: TcpStream) -> Peer {
        Peer {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
        }
    }

    /// Whether queued output is still waiting for the socket.
    #[must_use]
    pub fn has_unflushed(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Writes as much of `wbuf` as the socket accepts right now, emptying
    /// it once the socket has taken all of it.
    ///
    /// # Errors
    ///
    /// A write error, or a socket that takes no bytes.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Reads what arrived; `Ok(false)` at end of stream. A read that
    /// leaves buffer room took everything the socket held, so there is no
    /// second read to collect `EAGAIN` (poll is level-triggered). An
    /// over-[`crate::proto::MAX_FRAME`] prefix is an error before the
    /// buffer grows for it.
    ///
    /// # Errors
    ///
    /// Read errors and oversized frame prefixes.
    pub fn fill(&mut self) -> io::Result<bool> {
        loop {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => return Ok(false),
                Ok(_) if self.rbuf.tail_room() > 0 => return Ok(true),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

struct Conn<P> {
    peer: Peer,
    /// The slot this connection is parked on.
    pending: Option<P>,
    /// The pending slot's socket reported readiness this round.
    pending_ready: bool,
    /// Peer sent EOF; finish writing, then close.
    peer_closed: bool,
    /// Protocol violation (oversized frame) or I/O error: close now.
    dead: bool,
}

impl<P> Conn<P> {
    fn flush(&mut self) {
        if self.peer.flush().is_err() {
            self.dead = true;
        }
    }

    /// Should this connection be dropped now?
    fn finished(&self) -> bool {
        self.dead || (self.peer_closed && self.pending.is_none() && !self.peer.has_unflushed())
    }
}

/// Processes buffered frames until the connection parks on a slot or runs
/// out of complete frames. An oversized length prefix is a protocol
/// violation: the connection dies.
fn process_frames<S: Service>(service: &mut S, conn: &mut Conn<S::Pending>) {
    while conn.pending.is_none() && !conn.dead {
        match conn.peer.rbuf.next_frame() {
            Ok(Some(frame)) => conn.pending = service.handle(frame, &mut conn.peer.wbuf),
            Ok(None) => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

fn pollfd(fd: RawFd, events: i16) -> sys::PollFd {
    sys::PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// Connections the loop holds at most; newcomers wait in the listen
/// backlog. Each may park on a router backend socket, so twice this plus
/// the router's idle sockets stays under the usual 1,024-fd limit.
pub(crate) const MAX_CONNS: usize = 400;

const IDLE_TICK: Duration = Duration::from_millis(100);

/// Runs the readiness loop until drain completes. Takes the pre-bound
/// nonblocking listener and the waker other threads poke.
pub fn event_loop<S: Service>(service: &mut S, listener: &TcpListener, wake: &Waker) {
    let mut conns: Vec<Conn<S::Pending>> = Vec::new();
    // A failed accept (out of fds, say) leaves the listener readable, so
    // it sits out an idle tick instead of spinning poll.
    let mut accept_after = Instant::now();
    // Rebuilt every iteration: the poll set (waker, listener, then
    // connections) and, per connection entry, the connection it belongs to
    // and whether it is that connection's pending socket.
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    let mut poll_ids: Vec<(usize, bool)> = Vec::new();

    loop {
        if !service.draining() && crate::signals::drain_requested() {
            service.begin_drain();
        }
        let draining = service.draining();
        if draining
            && conns
                .iter()
                .all(|c| c.pending.is_none() && !c.peer.has_unflushed())
        {
            // Every waiter is answered and flushed: close everything
            // (clients see EOF).
            return;
        }

        pollfds.clear();
        poll_ids.clear();
        pollfds.push(pollfd(wake.rx.as_raw_fd(), sys::POLLIN));
        let now = Instant::now();
        let mut timeout = IDLE_TICK;
        if let Some(due) = service.tick(now) {
            timeout = timeout.min(due.saturating_duration_since(now));
        }
        // The listener leaves the set on drain, at the cap, and while
        // stalled: no events, no accepts.
        let accepting = !draining && now >= accept_after && conns.len() < MAX_CONNS;
        let events = if accepting { sys::POLLIN } else { 0 };
        pollfds.push(pollfd(listener.as_raw_fd(), events));
        for (id, conn) in conns.iter().enumerate() {
            let mut events: i16 = 0;
            if conn.pending.is_none() && !conn.peer_closed && !conn.dead {
                events |= sys::POLLIN;
            }
            if conn.peer.has_unflushed() && !conn.dead {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                pollfds.push(pollfd(conn.peer.stream.as_raw_fd(), events));
                poll_ids.push((id, false));
            }
            if let Some(p) = &conn.pending {
                if let Some(deadline) = service.deadline(p) {
                    timeout = timeout.min(deadline.saturating_duration_since(now));
                }
                if let Some(peer) = service.socket(p) {
                    let events = if peer.has_unflushed() {
                        sys::POLLOUT
                    } else {
                        sys::POLLIN
                    };
                    pollfds.push(pollfd(peer.stream.as_raw_fd(), events));
                    poll_ids.push((id, true));
                }
            }
        }

        // Round up, so a deadline a fraction of a millisecond away does
        // not spin through zero-timeout polls.
        let timeout_ms = i32::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(100);
        if sys::poll_fds(&mut pollfds, timeout_ms).is_err() {
            // poll itself failing is unrecoverable for the loop; drain so
            // the process can exit instead of spinning.
            service.begin_drain();
        }

        // Waker: drain it; the actual work is the pending scan below.
        if pollfds[0].revents != 0 {
            wake.drain();
        }

        // Accept everything waiting, up to the cap.
        while pollfds[1].revents & sys::POLLIN != 0 && conns.len() < MAX_CONNS {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    accept_after = Instant::now() + IDLE_TICK;
                    break;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Small request/response frames must not sit in Nagle's
            // buffer.
            let _ = stream.set_nodelay(true);
            conns.push(Conn {
                peer: Peer::new(stream),
                pending: None,
                pending_ready: false,
                peer_closed: false,
                dead: false,
            });
        }

        // Per-connection readiness.
        for (pfd, &(id, is_pending)) in pollfds[2..].iter().zip(&poll_ids) {
            if pfd.revents == 0 {
                continue;
            }
            let conn = &mut conns[id];
            if is_pending {
                // The slot reads its own errors off its socket.
                conn.pending_ready = true;
                continue;
            }
            if pfd.revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            if pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0 {
                match conn.peer.fill() {
                    Ok(true) => {}
                    Ok(false) => conn.peer_closed = true,
                    Err(_) => conn.dead = true,
                }
                process_frames(service, conn);
            }
            if pfd.revents & sys::POLLOUT != 0 {
                conn.flush();
            }
        }

        // Resolve pending slots: ready sockets, passed deadlines, and
        // socketless slots (worker publishes arrive through the waker).
        let now = Instant::now();
        for conn in &mut conns {
            if let Some(mut pending) = conn.pending.take() {
                let due = std::mem::take(&mut conn.pending_ready)
                    || service.socket(&pending).is_none()
                    || service.deadline(&pending).is_some_and(|d| now >= d);
                if due && service.resolve(&mut pending, now, &mut conn.peer.wbuf) {
                    // The connection may have pipelined more requests while
                    // parked; serve them now, in order.
                    process_frames(service, conn);
                } else {
                    conn.pending = Some(pending);
                }
            }
            if conn.peer.has_unflushed() && !conn.dead {
                // Opportunistic flush: most responses fit the socket buffer
                // and complete here, without waiting for the next poll.
                conn.flush();
            }
        }

        conns.retain(|conn| !conn.finished());
    }
}

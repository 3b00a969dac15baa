//! Property tests for the `hmtx-serve` frame codec: arbitrary payloads
//! round-trip through `write_frame` and the buffered `FrameBuf` reader,
//! whole or under any chunking, truncated frames are
//! rejected (or reported as clean EOF at a frame boundary) without panics
//! or fabricated payloads, oversized length prefixes are refused before
//! allocation, and `Request::parse` round-trips every request shape while
//! rejecting mangled bytes with an error.

use std::io::{Cursor, ErrorKind, Read};

use hmtx_server::proto::FrameBuf;
use hmtx_server::{write_frame, Request, MAX_FRAME};
use hmtx_types::{BenchRef, JobSpec, WireBase, WireParadigm, WireScale};
use proptest::prelude::*;

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..2048)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Any payload round-trips, and back-to-back frames on one stream stay
    /// delimited: two writes read back as the same two payloads, then a
    /// clean EOF.
    #[test]
    fn frames_round_trip_and_stay_delimited(a in arb_payload(), b in arb_payload()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = Cursor::new(wire);
        let mut buf = FrameBuf::new();
        let mut payload = || buf.read_frame(&mut r).unwrap().map(|f| f[4..].to_vec());
        prop_assert_eq!(payload(), Some(a));
        prop_assert_eq!(payload(), Some(b));
        prop_assert_eq!(payload(), None);
    }

    /// A frame cut anywhere — inside the length prefix or inside the
    /// payload — never yields a payload: a cut at offset 0 is a clean EOF
    /// (`Ok(None)`), any other cut is an `UnexpectedEof` error. Never a
    /// panic, never partial bytes.
    #[test]
    fn truncated_frames_never_yield_a_payload(payload in arb_payload(), cut_seed in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = (cut_seed % wire.len() as u64) as usize;
        let mut r = Cursor::new(&wire[..cut]);
        match FrameBuf::new().read_frame(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Ok(Some(got)) => prop_assert!(false, "truncated frame yielded {} bytes", got.len()),
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        }
    }

    /// A length prefix over `MAX_FRAME` is refused before any allocation,
    /// whatever bytes follow — a hostile client cannot make the server
    /// buffer gigabytes.
    #[test]
    fn oversized_length_prefixes_are_refused(len in (MAX_FRAME as u64 + 1)..(u32::MAX as u64 + 1), tail in arb_payload()) {
        let mut wire = (len as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&tail);
        let err = FrameBuf::new().read_frame(&mut Cursor::new(wire)).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    /// `FrameBuf` reassembles the written frames whatever sizes the
    /// stream delivers them in — split inside a prefix, inside a payload,
    /// or several per read — in order, one `read` per `fill`, and ends
    /// with nothing left over.
    #[test]
    fn frame_buf_reassembles_any_chunking(
        payloads in prop::collection::vec(arb_payload(), 0..6),
        chunk_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut reader = Chunked { data: &wire, seed: chunk_seed, reads: 0 };
        let mut buf = FrameBuf::new();
        let mut got = Vec::new();
        let mut fills = 0;
        loop {
            while let Some(frame) = buf.next_frame().unwrap() {
                got.push(frame[4..].to_vec());
            }
            fills += 1;
            if buf.fill(&mut reader).unwrap() == 0 {
                break;
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(buf.buffered(), 0);
        prop_assert_eq!(reader.reads, fills, "one read per fill");
    }

    /// A stream cut inside a frame never yields that frame: its bytes stay
    /// buffered (a caller sees them as a partial frame at EOF).
    #[test]
    fn frame_buf_never_yields_a_truncated_frame(payload in arb_payload(), cut_seed in any::<u64>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = 1 + (cut_seed % (wire.len() as u64 - 1)) as usize;
        let mut r = Cursor::new(&wire[..cut]);
        let mut buf = FrameBuf::new();
        while buf.fill(&mut r).unwrap() > 0 {
            prop_assert!(buf.next_frame().unwrap().is_none());
        }
        prop_assert_eq!(buf.buffered(), cut);
    }

    /// `fill` and `next_frame` refuse an over-`MAX_FRAME` prefix too,
    /// before the buffer grows for it.
    #[test]
    fn frame_buf_refuses_oversized_prefixes(len in (MAX_FRAME as u64 + 1)..(u32::MAX as u64 + 1)) {
        let wire = (len as u32).to_be_bytes().to_vec();
        let mut buf = FrameBuf::new();
        prop_assert_eq!(buf.fill(&mut Cursor::new(wire)).unwrap(), 4);
        prop_assert_eq!(buf.next_frame().unwrap_err().kind(), ErrorKind::InvalidData);
        prop_assert_eq!(
            buf.fill(&mut Cursor::new(Vec::new())).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
    }

    /// Every request shape survives `to_bytes` → `parse`.
    #[test]
    fn requests_round_trip(kind in 0u8..4, deadline in any::<u64>(), with_deadline in any::<bool>()) {
        let spec = JobSpec::new(
            BenchRef::SlaStress,
            WireParadigm::Paper,
            WireScale::Quick,
            WireBase::Test,
        );
        let req = match kind {
            0 => Request::Job { spec, deadline_ms: with_deadline.then_some(deadline) },
            1 => Request::Stats,
            2 => Request::Ping,
            _ => Request::Shutdown,
        };
        prop_assert_eq!(Request::parse(&req.to_bytes()).unwrap(), req);
    }

    /// Truncating a serialized request anywhere makes it unparseable — an
    /// error, not a panic or a silently defaulted request.
    #[test]
    fn truncated_requests_are_rejected(deadline in any::<u64>(), cut_seed in any::<u64>()) {
        let spec = JobSpec::new(
            BenchRef::Fig1Loop,
            WireParadigm::Doacross,
            WireScale::Standard,
            WireBase::Paper,
        );
        let bytes = Request::Job { spec, deadline_ms: Some(deadline) }.to_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Request::parse(&bytes[..cut]).is_err());
    }
}

/// A reader that hands out its data in seeded chunks of 1..=700 bytes and
/// counts its `read` calls.
struct Chunked<'a> {
    data: &'a [u8],
    seed: u64,
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.seed = self
            .seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let chunk = 1 + (self.seed >> 33) as usize % 700;
        let n = chunk.min(out.len()).min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// `write_frame` refuses oversized payloads up front (checked without
/// actually allocating 16 MiB per proptest case, hence a plain test).
#[test]
fn write_frame_refuses_oversized_payloads() {
    let too_big = vec![0u8; MAX_FRAME + 1];
    let err = write_frame(&mut Vec::new(), &too_big).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    let mut wire = Vec::new();
    write_frame(&mut wire, &[]).unwrap();
    assert_eq!(
        wire,
        vec![0, 0, 0, 0],
        "empty payload is a bare length prefix"
    );
}

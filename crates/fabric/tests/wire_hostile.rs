//! Hostile-input property tests for the wire protocol: whatever bytes a
//! broken network (or a chaos plan) delivers, the frame reader must never
//! panic, and every failure it reports must be a *recoverable*
//! [`WireError::Protocol`] — from a slice there is no I/O to fail, so an
//! `Io` error here would mean the parser misclassified corruption.

use cochar_colocation::CellStatus;
use cochar_fabric::wire::{
    write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell, WireError, MAX_FRAME,
};
use proptest::prelude::*;

/// Message kinds `msg_for` draws from.
const KINDS: u8 = 7;

/// Builds one valid message from a (kind, x) draw.
fn msg_for(kind: u8, x: u64) -> Msg {
    let cell = WireCell {
        fg: (x % 25) as usize,
        bg: (x / 25 % 25) as usize,
        attempt: (x % 4) as u32,
        issue: (x % 6) as u32,
    };
    match kind {
        0 => Msg::Ack,
        1 => Msg::Done,
        2 => Msg::Wait { ms: x % 10_000 },
        3 => Msg::Heartbeat { lease: x },
        4 => Msg::Lease { id: x, deadline_ms: x % 60_000, cell },
        5 => Msg::Result {
            lease: x,
            cell,
            outcome: if x.is_multiple_of(2) {
                CellOutcome::Value { value: x as f64 / 7.0, status: CellStatus::Ok }
            } else {
                CellOutcome::Panic { cause: format!("panic {x}") }
            },
            records: vec![format!("record {x}")],
        },
        _ => Msg::Claim {
            fp: x,
            worker: format!("w{}", x % 10),
            id: x.rotate_left(17),
            session: (x % 7) as u32,
            faults: x % 13,
        },
    }
}

/// Encodes `draws` into one contiguous frame stream.
fn stream_of(draws: &[(u8, u64)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &(kind, x) in draws {
        write_frame(&mut bytes, &msg_for(kind, x)).expect("vec write");
    }
    bytes
}

/// Drives a reader over `bytes` to the first error or clean EOF.
///
/// Returns `(parsed, error)`. Stops at the first error: a desynced
/// stream gives no resynchronization guarantees, and the production
/// consumers (coordinator and worker) drop the connection on the first
/// protocol error too.
fn drain(bytes: &[u8]) -> (Vec<Msg>, Option<WireError>) {
    let mut reader = FrameReader::new(bytes);
    let mut parsed = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Frame::Msg(m)) => parsed.push(m),
            Ok(Frame::Eof) => return (parsed, None),
            // A slice reader never blocks; Idle would be a reader bug
            // that this loop must not spin on.
            Ok(Frame::Idle) => panic!("idle frame from a slice reader"),
            Err(e) => return (parsed, Some(e)),
        }
    }
}

fn assert_protocol(err: &WireError) {
    match err {
        WireError::Protocol(_) => {}
        WireError::Io(e) => panic!("corruption surfaced as an I/O error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_streams_never_panic(
        draws in prop::collection::vec((0..KINDS, any::<u64>()), 1..6),
        cut in any::<u64>(),
    ) {
        let bytes = stream_of(&draws);
        let keep = (cut % bytes.len() as u64) as usize;
        let (parsed, err) = drain(&bytes[..keep]);
        prop_assert!(parsed.len() <= draws.len());
        // A cut on a frame boundary is a clean EOF; anywhere else must be
        // reported as recoverable protocol damage, never I/O.
        if let Some(e) = &err {
            assert_protocol(e);
            prop_assert!(
                e.to_string().contains("mid-frame") || e.to_string().contains("protocol"),
                "unexpected error for truncation: {e}"
            );
        }
    }

    #[test]
    fn flipped_bits_are_caught_as_protocol_errors(
        draws in prop::collection::vec((0..KINDS, any::<u64>()), 1..6),
        pick in any::<u64>(),
    ) {
        let mut bytes = stream_of(&draws);
        let pos = (pick % (bytes.len() as u64 * 8)) as usize;
        bytes[pos / 8] ^= 1 << (pos % 8);
        let (parsed, err) = drain(&bytes);
        // One damaged frame: everything before it parses, the damaged one
        // (or the desynced remainder) must error — checksums make a
        // silent wrong parse practically impossible.
        prop_assert!(parsed.len() < draws.len(), "flip at bit {pos} went unnoticed");
        let e = err.expect("a flipped bit must surface an error");
        assert_protocol(&e);
    }

    #[test]
    fn random_garbage_never_panics(
        len in 1usize..512,
        seed in any::<u64>(),
    ) {
        // SplitMix64 noise: deterministic per case, unstructured bytes.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let (_, err) = drain(&bytes);
        if let Some(e) = &err {
            assert_protocol(e);
        }
    }

    #[test]
    fn oversized_length_headers_are_refused(
        excess in 1u64..1_000_000,
        fill in any::<u64>(),
    ) {
        // A header whose length field exceeds MAX_FRAME must be refused
        // outright — not allocated, not awaited.
        let len = MAX_FRAME as u64 + excess;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(len as u32).to_be_bytes());
        bytes.extend_from_slice(&fill.to_be_bytes());
        let (parsed, err) = drain(&bytes);
        prop_assert!(parsed.is_empty());
        let e = err.expect("oversized frame must be refused");
        assert_protocol(&e);
        prop_assert!(e.to_string().contains("oversized"), "got: {e}");
    }
}

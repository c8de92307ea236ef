//! The fabric wire protocol.
//!
//! Frames are length-prefixed, checksummed JSON: a 4-byte big-endian
//! payload length, an 8-byte big-endian payload checksum
//! ([`cochar_machine::StableHasher`] over the payload bytes), then one
//! UTF-8 JSON document (the store's deterministic [`Json`] codec — the
//! workspace carries no serde runtime). The message grammar, coordinator
//! (C) vs worker (W):
//!
//! ```text
//! C→W  hello     {t, fp, lease_ms, campaign{machine,work,threads,trials,seed,msr,names}, solo:[line...]}
//! W→C  claim     {t, fp, worker, id, session, faults}
//! C→W  lease     {t, id, deadline_ms, cell{fg,bg,attempt,issue}}
//!      | wait    {t, ms}
//!      | done    {t}
//! W→C  result    {t, lease, cell{...}, ok, value?, status?, panic?, records:[line...]}
//! C→W  ack       {t}
//! W→C  heartbeat {t, lease}        (any time while a lease is held)
//! ```
//!
//! `worker` is a free-text label for diagnostics; `id` is a random
//! identity the worker draws once and keeps across reconnects.
//! `session` counts reconnects (0 = a worker's first connection) and
//! `faults` is the worker's cumulative count of wire protocol errors it
//! has observed; the coordinator keeps one high-water mark of it per
//! `id`, so its ledger sees both sides of every link.
//!
//! Integer fields are decoded at their declared width: a value that does
//! not fit (an `attempt` of 2³², say) is a protocol error, never
//! truncated into a different, plausible message.
//!
//! `solo` and `records` carry journal lines exactly as
//! [`cochar_store::journal::render_record`] produced them — checksummed
//! and canonical, so the receiving side re-verifies every record with
//! [`cochar_store::journal::parse_record`] before trusting it. Cell
//! values travel as shortest-round-trip floats ([`Json::f64`]), which
//! reproduce the exact `f64`, so a merged heatmap is bit-identical to a
//! locally-computed one.
//!
//! # Error classification
//!
//! Reading a frame can fail two ways, and recovery differs, so
//! [`FrameReader::next_frame`] returns a typed [`WireError`]:
//!
//! * [`WireError::Protocol`] — the bytes are not a trustworthy frame:
//!   oversized length, checksum mismatch (corruption or desync), non-UTF-8
//!   payload, malformed JSON, an unknown message, or a connection closed
//!   mid-frame. The peer's *state* may be fine but this link is not; the
//!   recovery is to drop the connection and let the lease machinery /
//!   worker reconnect handle it. The frame checksum is what turns a
//!   flipped bit anywhere in the stream into this error instead of a
//!   silent desync or a panic deep inside the JSON parser.
//! * [`WireError::Io`] — the transport itself failed (socket error).
//!   Same recovery, but counted differently: an I/O error is the
//!   network's fault, a protocol error is evidence of corruption.

use std::io::{Read, Write};

use cochar_colocation::CellStatus;
use cochar_machine::StableHasher;
use cochar_store::json::Json;

use crate::CampaignSpec;

/// Upper bound on one frame's payload (a lease or result is a few KB; a
/// hello shipping a big solo seed set can reach megabytes).
pub const MAX_FRAME: usize = 64 << 20;

/// Frame header size: 4-byte length + 8-byte checksum.
pub const FRAME_HEADER: usize = 12;

/// A typed wire failure (see the module docs for the classification).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The transport failed (socket-level read error).
    Io(String),
    /// The byte stream is not a valid frame sequence: corruption, desync,
    /// truncation, or a malformed message. Recoverable by dropping the
    /// connection, never by continuing to parse.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io: {e}"),
            WireError::Protocol(e) => write!(f, "wire protocol: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The cell of a lease: heatmap coordinates into the campaign's name
/// list, the supervisor retry attempt, and the delivery issue count
/// (how many leases for this cell were lost before this one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireCell {
    /// Foreground index into `CampaignSpec::names`.
    pub fg: usize,
    /// Background index into `CampaignSpec::names`.
    pub bg: usize,
    /// Supervisor attempt number (reseeds deterministically).
    pub attempt: u32,
    /// Delivery issue count (0 = first time this cell is leased).
    pub issue: u32,
}

/// What a worker reports for one computed cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell computed: the fg slowdown and its measurement status.
    Value {
        /// Foreground slowdown (the heatmap cell value).
        value: f64,
        /// Measurement quality.
        status: CellStatus,
    },
    /// The cell's simulation panicked; the coordinator decides between
    /// retry (new attempt) and a final [`cochar_colocation::CellFailure`].
    Panic {
        /// The panic message.
        cause: String,
    },
}

/// A parsed protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Coordinator greeting: campaign description + solo seed records.
    Hello {
        /// Campaign fingerprint ([`CampaignSpec::fingerprint`]).
        fp: u64,
        /// Lease duration in ms (workers heartbeat well inside it).
        lease_ms: u64,
        /// The campaign itself.
        campaign: CampaignSpec,
        /// Journal lines pre-seeding every solo run, so workers only
        /// simulate pair cells.
        solo: Vec<String>,
    },
    /// Worker requests work, echoing the fingerprint it was greeted with.
    Claim {
        /// Echoed campaign fingerprint.
        fp: u64,
        /// Worker label (diagnostics only).
        worker: String,
        /// The worker's identity, drawn once and kept across reconnects:
        /// the key of its fault count.
        id: u64,
        /// Reconnect count: 0 on a worker's first connection, bumped on
        /// each re-connection to the same campaign.
        session: u32,
        /// Cumulative wire protocol errors this worker has observed,
        /// folded into the coordinator's ledger.
        faults: u64,
    },
    /// One cell to compute, with a deadline.
    Lease {
        /// Lease id (echoed in results and heartbeats).
        id: u64,
        /// Lease duration from receipt, in ms.
        deadline_ms: u64,
        /// The cell to compute.
        cell: WireCell,
    },
    /// No work right now; ask again in `ms`.
    Wait {
        /// Suggested back-off in ms.
        ms: u64,
    },
    /// The campaign settled; the worker should exit.
    Done,
    /// One computed (or panicked) cell plus the new journal records the
    /// computation produced.
    Result {
        /// The lease this cell belonged to.
        lease: u64,
        /// Which cell.
        cell: WireCell,
        /// What happened.
        outcome: CellOutcome,
        /// New journal lines from the worker's store.
        records: Vec<String>,
    },
    /// Lease keep-alive while a long cell computes.
    Heartbeat {
        /// The lease being extended.
        lease: u64,
    },
    /// Coordinator acknowledges a result (the worker's cue to continue).
    Ack,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn hex16(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

/// Cell statuses by their wire names.
const STATUSES: [(CellStatus, &str); 4] = [
    (CellStatus::Ok, "ok"),
    (CellStatus::Truncated, "truncated"),
    (CellStatus::Stalled, "stalled"),
    (CellStatus::Failed, "failed"),
];

fn status_str(s: CellStatus) -> &'static str {
    STATUSES.iter().find(|(status, _)| *status == s).map_or("failed", |(_, name)| name)
}

fn status_parse(s: &str) -> Result<CellStatus, String> {
    let known = STATUSES.iter().find(|(_, name)| *name == s);
    known.map(|(status, _)| *status).ok_or_else(|| format!("unknown cell status {s:?}"))
}

/// Typed access to a JSON object's fields, errors rendered as strings.
pub(crate) struct Fields<'a>(pub(crate) &'a Json);

impl<'a> Fields<'a> {
    pub(crate) fn get(&self, k: &str) -> Result<&'a Json, String> {
        self.0.field(k).map_err(|e| e.to_string())
    }

    fn u64(&self, k: &str) -> Result<u64, String> {
        self.get(k)?.as_u64().map_err(|e| e.to_string())
    }

    /// An integer field that must fit `T`: a wider value is refused,
    /// never truncated.
    fn int<T: TryFrom<u64>>(&self, k: &str) -> Result<T, String> {
        let v = self.u64(k)?;
        T::try_from(v).map_err(|_| format!("field {k:?} out of range: {v}"))
    }

    fn str(&self, k: &str) -> Result<&'a str, String> {
        self.get(k)?.as_str().map_err(|e| e.to_string())
    }

    pub(crate) fn hex(&self, k: &str) -> Result<u64, String> {
        let s = self.str(k)?;
        u64::from_str_radix(s, 16).map_err(|_| format!("bad hex fingerprint {s:?}"))
    }

    fn strings(&self, k: &str) -> Result<Vec<String>, String> {
        let arr = self.get(k)?.as_arr().map_err(|e| e.to_string())?;
        arr.iter().map(|l| l.as_str().map(str::to_string).map_err(|e| e.to_string())).collect()
    }
}

impl WireCell {
    fn to_json(self) -> Json {
        obj(vec![
            ("fg", Json::u64(self.fg as u64)),
            ("bg", Json::u64(self.bg as u64)),
            ("attempt", Json::u64(u64::from(self.attempt))),
            ("issue", Json::u64(u64::from(self.issue))),
        ])
    }

    fn from_json(v: &Json) -> Result<WireCell, String> {
        let f = Fields(v);
        Ok(WireCell {
            fg: f.int("fg")?,
            bg: f.int("bg")?,
            attempt: f.int("attempt")?,
            issue: f.int("issue")?,
        })
    }
}

/// Renders a campaign spec for the wire and for `campaign.json`
/// (crash-recovery metadata beside the store).
pub(crate) fn campaign_to_json(c: &CampaignSpec) -> Json {
    obj(vec![
        ("machine", Json::str(&c.machine)),
        ("work", Json::f64(c.work)),
        ("threads", Json::u64(c.threads as u64)),
        ("trials", Json::u64(u64::from(c.trials))),
        ("seed", Json::u64(c.seed)),
        ("msr", Json::u64(c.msr)),
        ("names", Json::Arr(c.names.iter().map(Json::str).collect())),
    ])
}

/// Parses a campaign spec (wire hello, `campaign.json`).
pub(crate) fn campaign_from_json(v: &Json) -> Result<CampaignSpec, String> {
    let f = Fields(v);
    Ok(CampaignSpec {
        machine: f.str("machine")?.to_string(),
        work: f.get("work")?.as_f64().map_err(|e| e.to_string())?,
        threads: f.int("threads")?,
        trials: f.int("trials")?,
        seed: f.u64("seed")?,
        msr: f.u64("msr")?,
        names: f.strings("names")?,
    })
}

fn lines_to_json(lines: &[String]) -> Json {
    Json::Arr(lines.iter().map(Json::str).collect())
}

impl Msg {
    /// Renders the message as its JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Msg::Hello { fp, lease_ms, campaign, solo } => obj(vec![
                ("t", Json::str("hello")),
                ("fp", hex16(*fp)),
                ("lease_ms", Json::u64(*lease_ms)),
                ("campaign", campaign_to_json(campaign)),
                ("solo", lines_to_json(solo)),
            ]),
            Msg::Claim { fp, worker, id, session, faults } => obj(vec![
                ("t", Json::str("claim")),
                ("fp", hex16(*fp)),
                ("worker", Json::str(worker)),
                ("id", hex16(*id)),
                ("session", Json::u64(u64::from(*session))),
                ("faults", Json::u64(*faults)),
            ]),
            Msg::Lease { id, deadline_ms, cell } => obj(vec![
                ("t", Json::str("lease")),
                ("id", Json::u64(*id)),
                ("deadline_ms", Json::u64(*deadline_ms)),
                ("cell", cell.to_json()),
            ]),
            Msg::Wait { ms } => obj(vec![("t", Json::str("wait")), ("ms", Json::u64(*ms))]),
            Msg::Done => obj(vec![("t", Json::str("done"))]),
            Msg::Result { lease, cell, outcome, records } => {
                let mut fields = vec![
                    ("t", Json::str("result")),
                    ("lease", Json::u64(*lease)),
                    ("cell", cell.to_json()),
                ];
                match outcome {
                    CellOutcome::Value { value, status } => {
                        fields.push(("ok", Json::Bool(true)));
                        fields.push(("value", Json::f64(*value)));
                        fields.push(("status", Json::str(status_str(*status))));
                    }
                    CellOutcome::Panic { cause } => {
                        fields.push(("ok", Json::Bool(false)));
                        fields.push(("panic", Json::str(cause)));
                    }
                }
                fields.push(("records", lines_to_json(records)));
                obj(fields)
            }
            Msg::Heartbeat { lease } => {
                obj(vec![("t", Json::str("heartbeat")), ("lease", Json::u64(*lease))])
            }
            Msg::Ack => obj(vec![("t", Json::str("ack"))]),
        }
    }

    /// Parses a protocol message from its JSON document.
    pub fn from_json(v: &Json) -> Result<Msg, String> {
        let f = Fields(v);
        let t = f.str("t").map_err(|e| format!("frame missing type: {e}"))?;
        match t {
            "hello" => Ok(Msg::Hello {
                fp: f.hex("fp")?,
                lease_ms: f.u64("lease_ms")?,
                campaign: campaign_from_json(f.get("campaign")?)?,
                solo: f.strings("solo")?,
            }),
            "claim" => Ok(Msg::Claim {
                fp: f.hex("fp")?,
                worker: f.str("worker")?.to_string(),
                id: f.hex("id")?,
                session: f.int("session")?,
                faults: f.u64("faults")?,
            }),
            "lease" => Ok(Msg::Lease {
                id: f.u64("id")?,
                deadline_ms: f.u64("deadline_ms")?,
                cell: WireCell::from_json(f.get("cell")?)?,
            }),
            "wait" => Ok(Msg::Wait { ms: f.u64("ms")? }),
            "done" => Ok(Msg::Done),
            "result" => {
                let outcome = if f.get("ok")?.as_bool().map_err(|e| e.to_string())? {
                    CellOutcome::Value {
                        value: f.get("value")?.as_f64().map_err(|e| e.to_string())?,
                        status: status_parse(f.str("status")?)?,
                    }
                } else {
                    CellOutcome::Panic { cause: f.str("panic")?.to_string() }
                };
                Ok(Msg::Result {
                    lease: f.u64("lease")?,
                    cell: WireCell::from_json(f.get("cell")?)?,
                    outcome,
                    records: f.strings("records")?,
                })
            }
            "heartbeat" => Ok(Msg::Heartbeat { lease: f.u64("lease")? }),
            "ack" => Ok(Msg::Ack),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

/// The per-frame checksum: [`StableHasher`] over the payload bytes.
fn frame_checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// Writes one frame (length + checksum + JSON payload) and flushes.
///
/// The single trailing flush doubles as the frame delimiter for
/// [`crate::chaos::ChaosStream`], which injects faults frame-at-a-time.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> std::io::Result<()> {
    let payload = msg.to_json().render();
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME);
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(&frame_checksum(bytes).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// What [`FrameReader::next_frame`] yielded.
#[derive(Debug)]
pub enum Frame {
    /// A complete, checksum-verified message.
    Msg(Msg),
    /// The peer closed the connection cleanly (no partial frame pending).
    Eof,
    /// A read timed out with no complete frame buffered. Partial bytes
    /// (a frame mid-flight) stay buffered — the caller decides whether to
    /// keep waiting or give up.
    Idle,
}

/// Incremental frame parser over a (possibly timeout-equipped) stream.
///
/// Reads are buffered, so a read timeout can never desynchronize the
/// framing: partially received frames accumulate until complete. Every
/// frame is checksum-verified before its JSON is parsed, so corrupted or
/// desynced bytes surface as [`WireError::Protocol`], never as a bogus
/// message or a panic.
pub struct FrameReader<R: Read> {
    src: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(src: R) -> Self {
        FrameReader { src, buf: Vec::with_capacity(4096) }
    }

    /// Blocks until a full frame arrives, the peer closes, or one read
    /// times out (when the underlying stream has a read timeout set).
    pub fn next_frame(&mut self) -> Result<Frame, WireError> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Frame::Msg(msg));
            }
            let mut chunk = [0u8; 4096];
            match self.src.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(Frame::Eof)
                    } else {
                        Err(WireError::Protocol("connection closed mid-frame".into()))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(format!("read: {e}"))),
            }
        }
    }

    fn take_frame(&mut self) -> Result<Option<Msg>, WireError> {
        let bad = |msg: String| Err(WireError::Protocol(msg));
        if self.buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return bad(format!("oversized frame ({len} bytes)"));
        }
        let sum = u64::from_be_bytes(self.buf[4..12].try_into().expect("8 checksum bytes"));
        if self.buf.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let body = &self.buf[FRAME_HEADER..FRAME_HEADER + len];
        let computed = frame_checksum(body);
        if computed != sum {
            return bad(format!(
                "frame checksum mismatch (sent {sum:016x}, computed {computed:016x}) — \
                 corrupted or desynced stream"
            ));
        }
        let payload = match std::str::from_utf8(body) {
            Ok(p) => p,
            Err(_) => return bad("non-utf8 frame".into()),
        };
        let doc = match cochar_store::json::Json::parse(payload) {
            Ok(d) => d,
            Err(e) => return bad(e.to_string()),
        };
        let msg = match Msg::from_json(&doc) {
            Ok(m) => m,
            Err(e) => return bad(e),
        };
        self.buf.drain(..FRAME_HEADER + len);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            machine: "tiny".into(),
            work: 0.1,
            threads: 1,
            trials: 1,
            seed: 1,
            msr: 0,
            names: vec!["blackscholes".into(), "swaptions".into()],
        }
    }

    fn round_trip(msg: Msg) {
        let doc = msg.to_json();
        let back = Msg::from_json(&doc).unwrap();
        assert_eq!(back, msg);
        // And through the parser, byte-canonical.
        let reparsed = cochar_store::json::Json::parse(&doc.render()).unwrap();
        assert_eq!(Msg::from_json(&reparsed).unwrap(), msg);
    }

    #[test]
    fn every_message_round_trips() {
        let cell = WireCell { fg: 3, bg: 7, attempt: 1, issue: 2 };
        round_trip(Msg::Hello {
            fp: 0xdead_beef,
            lease_ms: 30_000,
            campaign: spec(),
            solo: vec!["{\"k\":\"x\"}".into()],
        });
        round_trip(Msg::Claim { fp: 1, worker: "w0".into(), id: u64::MAX, session: 3, faults: 2 });
        round_trip(Msg::Lease { id: 9, deadline_ms: 30_000, cell });
        round_trip(Msg::Wait { ms: 200 });
        round_trip(Msg::Done);
        round_trip(Msg::Result {
            lease: 9,
            cell,
            outcome: CellOutcome::Value { value: 1.2345678901234567, status: CellStatus::Ok },
            records: vec!["line1".into(), "line2".into()],
        });
        round_trip(Msg::Result {
            lease: 9,
            cell,
            outcome: CellOutcome::Panic { cause: "chaos: injected".into() },
            records: vec![],
        });
        round_trip(Msg::Heartbeat { lease: 9 });
        round_trip(Msg::Ack);
    }

    #[test]
    fn float_values_survive_exactly() {
        let v = 1.000000000000004_f64;
        let msg = Msg::Result {
            lease: 1,
            cell: WireCell { fg: 0, bg: 0, attempt: 0, issue: 0 },
            outcome: CellOutcome::Value { value: v, status: CellStatus::Truncated },
            records: vec![],
        };
        let doc = cochar_store::json::Json::parse(&msg.to_json().render()).unwrap();
        match Msg::from_json(&doc).unwrap() {
            Msg::Result { outcome: CellOutcome::Value { value, .. }, .. } => {
                assert_eq!(value.to_bits(), v.to_bits());
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn an_attempt_past_u32_is_a_protocol_error_not_attempt_zero() {
        let msg = Msg::Result {
            lease: 1,
            cell: WireCell { fg: 0, bg: 0, attempt: 0, issue: 0 },
            outcome: CellOutcome::Value { value: 1.5, status: CellStatus::Ok },
            records: vec![],
        };
        let payload = msg.to_json().render();
        let hostile = payload.replacen("\"attempt\":0", "\"attempt\":4294967296", 1);
        assert_ne!(hostile, payload, "the attempt field was rewritten");
        // A correctly checksummed frame: only the decoder can refuse it.
        let mut bytes = (hostile.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&frame_checksum(hostile.as_bytes()).to_be_bytes());
        bytes.extend_from_slice(hostile.as_bytes());
        match FrameReader::new(&bytes[..]).next_frame() {
            Err(WireError::Protocol(e)) => assert!(e.contains("\"attempt\" out of range"), "{e}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn frames_survive_byte_dribble() {
        // Feed the reader one byte at a time via a 1-byte reader.
        struct Dribble(Vec<u8>, usize);
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Msg::Wait { ms: 7 }).unwrap();
        write_frame(&mut bytes, &Msg::Done).unwrap();
        let mut r = FrameReader::new(Dribble(bytes, 0));
        assert!(matches!(r.next_frame().unwrap(), Frame::Msg(Msg::Wait { ms: 7 })));
        assert!(matches!(r.next_frame().unwrap(), Frame::Msg(Msg::Done)));
        assert!(matches!(r.next_frame().unwrap(), Frame::Eof));
    }

    #[test]
    fn mid_frame_eof_is_a_protocol_error() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Msg::Done).unwrap();
        bytes.truncate(bytes.len() - 1);
        let mut r = FrameReader::new(&bytes[..]);
        match r.next_frame() {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("mid-frame"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        let mut r = FrameReader::new(&bytes[..]);
        match r.next_frame() {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn flipped_bit_is_a_checksum_mismatch() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Msg::Wait { ms: 7 }).unwrap();
        // Flip one bit inside the payload; the frame must be refused as a
        // protocol error, not parsed into a different message.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let mut r = FrameReader::new(&bytes[..]);
        match r.next_frame() {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn messages_after_a_clean_frame_still_parse() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Msg::Ack).unwrap();
        let clean = bytes.len();
        write_frame(&mut bytes, &Msg::Wait { ms: 3 }).unwrap();
        bytes[clean + FRAME_HEADER] ^= 0x01; // corrupt only the second frame
        let mut r = FrameReader::new(&bytes[..]);
        assert!(matches!(r.next_frame().unwrap(), Frame::Msg(Msg::Ack)));
        assert!(matches!(r.next_frame(), Err(WireError::Protocol(_))));
    }
}

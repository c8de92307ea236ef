//! Wire-level fault injection: the network misbehaving on a schedule.
//!
//! [`ChaosStream`] wraps a worker's half of the fabric socket and
//! sabotages *outbound frames* according to a [`WirePlan`], armed from
//! the `COCHAR_CHAOS_WIRE` environment variable by the CLI (inert
//! otherwise). The grammar mirrors `COCHAR_CHAOS_STORE`
//! ([`cochar_store::FaultPlan`]): a comma-separated schedule keyed by the
//! zero-based outbound frame index,
//!
//! ```text
//! drop@N            swallow frame N (the sender believes it was sent)
//! delay@N:MS        stall frame N for MS milliseconds, then send it
//! dup@N             send frame N twice
//! flip@N:BIT        flip bit BIT (mod frame length) of frame N
//! close@N           shut the socket down instead of sending frame N
//! ```
//!
//! e.g. `COCHAR_CHAOS_WIRE="flip@1:40,close@3"`. Frame indices count
//! every outbound frame of the *process* — claims, results, heartbeats —
//! and keep counting across reconnects (the shared [`ChaosState`]
//! persists), so each scheduled fault fires exactly once per process, not
//! once per connection; otherwise a fault that forces a reconnect would
//! re-arm itself and the worker would never make progress.
//!
//! Because [`crate::wire::write_frame`] issues exactly one `flush()` per
//! frame, the stream buffers writes and treats each flush as one frame —
//! no frame parsing needed on the injection side. Whatever the fault does
//! to the bytes, the receiving [`crate::wire::FrameReader`] classifies
//! the damage as a recoverable [`crate::wire::WireError::Protocol`]
//! (checksum mismatch, truncation) or sees a dead connection; the lease
//! machinery and worker reconnect own the recovery.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One scheduled wire fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Swallow the frame; the sender sees success.
    Drop,
    /// Sleep this many milliseconds, then send the frame normally.
    Delay(u64),
    /// Send the frame twice.
    Dup,
    /// Flip this bit (mod the frame's bit length) anywhere in the frame,
    /// header or payload.
    Flip(u64),
    /// Shut the socket down instead of sending.
    Close,
}

/// A parsed `COCHAR_CHAOS_WIRE` schedule: outbound frame index → fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WirePlan {
    schedule: BTreeMap<u64, WireFault>,
}

impl WirePlan {
    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The fault scheduled for frame `nth`, if any.
    pub fn fault_at(&self, nth: u64) -> Option<WireFault> {
        self.schedule.get(&nth).copied()
    }

    /// Parses the `COCHAR_CHAOS_WIRE` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<WirePlan, String> {
        let mut plan = WirePlan::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("wire fault {part:?}: expected kind@frame[:arg]"))?;
            let (frame, arg) = match rest.split_once(':') {
                Some((f, a)) => (f, Some(a)),
                None => (rest, None),
            };
            let frame: u64 = frame
                .parse()
                .map_err(|_| format!("wire fault {part:?}: bad frame index {frame:?}"))?;
            let num = |what: &str| -> Result<u64, String> {
                arg.ok_or_else(|| format!("wire fault {part:?}: needs :{what}"))?
                    .parse()
                    .map_err(|_| format!("wire fault {part:?}: bad {what}"))
            };
            let fault = match kind {
                "drop" => WireFault::Drop,
                "delay" => WireFault::Delay(num("ms")?),
                "dup" => WireFault::Dup,
                "flip" => WireFault::Flip(num("bit")?),
                "close" => WireFault::Close,
                other => {
                    return Err(format!(
                        "unknown wire fault {other:?} (drop|delay|dup|flip|close)"
                    ))
                }
            };
            if arg.is_some() && matches!(fault, WireFault::Drop | WireFault::Dup | WireFault::Close)
            {
                return Err(format!("wire fault {part:?}: takes no :arg"));
            }
            plan.schedule.insert(frame, fault);
        }
        Ok(plan)
    }
}

/// Shared fault-injection state: the plan plus the process-wide outbound
/// frame counter. One instance per worker process, threaded through every
/// (re)connection so frame indices never reset.
#[derive(Debug)]
pub struct ChaosState {
    plan: WirePlan,
    frames: u64,
}

impl ChaosState {
    /// Fresh state for `plan`, counting from frame 0.
    pub fn new(plan: WirePlan) -> ChaosState {
        ChaosState { plan, frames: 0 }
    }

    /// Consumes the next frame index and returns its scheduled fault.
    fn next_fault(&mut self) -> (u64, Option<WireFault>) {
        let nth = self.frames;
        self.frames += 1;
        (nth, self.plan.fault_at(nth))
    }
}

/// A write-side wrapper over the fabric socket that injects the scheduled
/// faults frame-at-a-time (see the module docs for the framing trick).
pub struct ChaosStream {
    inner: TcpStream,
    state: Arc<Mutex<ChaosState>>,
    buf: Vec<u8>,
    closed: bool,
}

impl ChaosStream {
    /// Wraps `inner`, drawing faults from the shared `state`.
    pub fn new(inner: TcpStream, state: Arc<Mutex<ChaosState>>) -> ChaosStream {
        ChaosStream { inner, state, buf: Vec::with_capacity(4096), closed: false }
    }
}

fn injected_close() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos: connection closed (injected)")
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.closed {
            return Err(injected_close());
        }
        let mut frame = std::mem::take(&mut self.buf);
        if frame.is_empty() {
            return self.inner.flush();
        }
        let (nth, fault) =
            self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).next_fault();
        let copies = match fault {
            None => 1,
            Some(WireFault::Drop) => {
                eprintln!("chaos: wire dropping frame {nth}");
                0
            }
            Some(WireFault::Delay(ms)) => {
                eprintln!("chaos: wire delaying frame {nth} by {ms}ms");
                std::thread::sleep(Duration::from_millis(ms));
                1
            }
            Some(WireFault::Dup) => {
                eprintln!("chaos: wire duplicating frame {nth}");
                2
            }
            Some(WireFault::Flip(bit)) => {
                let pos = (bit as usize) % (frame.len() * 8);
                eprintln!("chaos: wire flipping bit {pos} of frame {nth}");
                frame[pos / 8] ^= 1 << (pos % 8);
                1
            }
            Some(WireFault::Close) => {
                eprintln!("chaos: wire closing connection instead of frame {nth}");
                self.closed = true;
                let _ = self.inner.shutdown(std::net::Shutdown::Both);
                return Err(injected_close());
            }
        };
        for _ in 0..copies {
            self.inner.write_all(&frame)?;
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grammar_parses() {
        let plan = WirePlan::parse("drop@2,delay@1:50,dup@0,flip@3:13,close@5").unwrap();
        assert_eq!(plan.fault_at(0), Some(WireFault::Dup));
        assert_eq!(plan.fault_at(1), Some(WireFault::Delay(50)));
        assert_eq!(plan.fault_at(2), Some(WireFault::Drop));
        assert_eq!(plan.fault_at(3), Some(WireFault::Flip(13)));
        assert_eq!(plan.fault_at(5), Some(WireFault::Close));
        assert_eq!(plan.fault_at(4), None);
    }

    #[test]
    fn plan_grammar_rejects_malformed() {
        assert!(WirePlan::parse("drop").is_err());
        assert!(WirePlan::parse("drop@x").is_err());
        assert!(WirePlan::parse("delay@1").is_err());
        assert!(WirePlan::parse("delay@1:abc").is_err());
        assert!(WirePlan::parse("flip@2").is_err());
        assert!(WirePlan::parse("dup@2:9").is_err());
        assert!(WirePlan::parse("melt@1").is_err());
        assert!(WirePlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn state_counts_frames_across_sessions() {
        let mut st = ChaosState::new(WirePlan::parse("close@2").unwrap());
        assert_eq!(st.next_fault(), (0, None));
        assert_eq!(st.next_fault(), (1, None));
        // A reconnect reuses the same state, so the schedule keeps moving.
        assert_eq!(st.next_fault(), (2, Some(WireFault::Close)));
        assert_eq!(st.next_fault(), (3, None));
    }
}

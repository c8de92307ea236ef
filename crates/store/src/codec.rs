//! Canonical JSON encoding of [`RunOutcome`].
//!
//! The encoding is the store's contract: the journal checksum is computed
//! over exactly this form, and the determinism test asserts that a decoded
//! outcome is `==` to the freshly simulated one. Field order is therefore
//! fixed, keys are short (the journal holds thousands of records), and
//! every integer is carried as a native JSON integer (no `f64` detour), so
//! the round trip is bit-exact.
//!
//! Decoding reads those canonical bytes directly, in one pass and in the
//! encoder's field order (`decode_payload`); it builds no [`Json`] tree.
//! It accepts exactly what [`encode_outcome`] renders — no whitespace, no
//! reordered or missing keys, integers without leading zeros, strings in
//! their rendered spelling — so anything it accepts re-encodes to the
//! same bytes.

use cochar_machine::{AppResult, CoreCounters, EpochTraffic, Role, RunOutcome};
use cochar_machine::counters::PcCounters;

use crate::json::{canonical_string, Json, JsonError};

/// Encodes a run outcome into its canonical JSON value.
pub fn encode_outcome(o: &RunOutcome) -> Json {
    Json::Obj(vec![
        ("apps".into(), Json::Arr(o.apps.iter().map(encode_app).collect())),
        ("horizon".into(), Json::u64(o.horizon)),
        ("trunc".into(), Json::Bool(o.truncated)),
        ("stall".into(), Json::Bool(o.stalled)),
        ("epochs".into(), Json::Arr(o.epochs.iter().map(encode_epoch).collect())),
        ("epoch_cycles".into(), Json::u64(o.epoch_cycles)),
        ("freq_ghz".into(), Json::f64(o.freq_ghz)),
    ])
}

fn encode_app(a: &AppResult) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(&a.name)),
        (
            "role".into(),
            Json::str(match a.role {
                Role::Foreground => "fg",
                Role::Background => "bg",
            }),
        ),
        ("threads".into(), Json::u64(a.threads as u64)),
        ("elapsed".into(), Json::u64(a.elapsed_cycles)),
        ("ctr".into(), encode_counters(&a.counters)),
        ("per_core".into(), Json::Arr(a.per_core.iter().map(encode_counters).collect())),
        ("bg_iters".into(), Json::u64(a.bg_iterations)),
        ("rd".into(), Json::u64(a.read_bytes)),
        ("wr".into(), Json::u64(a.write_bytes)),
    ])
}

fn encode_counters(c: &CoreCounters) -> Json {
    let pc = c
        .pc_stats
        .iter()
        .map(|p| {
            Json::Arr(vec![
                Json::u64(p.pc as u64),
                Json::u64(p.accesses),
                Json::u64(p.l2_misses),
                Json::u64(p.pending_cycles),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("i".into(), Json::u64(c.instructions)),
        ("c".into(), Json::u64(c.cycles)),
        ("ld".into(), Json::u64(c.loads)),
        ("st".into(), Json::u64(c.stores)),
        ("l1h".into(), Json::u64(c.l1_hits)),
        ("l2h".into(), Json::u64(c.l2_hits)),
        ("l2m".into(), Json::u64(c.l2_misses)),
        ("llh".into(), Json::u64(c.llc_hits)),
        ("llm".into(), Json::u64(c.llc_misses)),
        ("mg".into(), Json::u64(c.inflight_merges)),
        ("pd".into(), Json::u64(c.pending_cycles)),
        ("pi".into(), Json::u64(c.prefetch_issued)),
        ("pu".into(), Json::u64(c.prefetch_useful)),
        ("pl".into(), Json::u64(c.prefetch_late)),
        ("pt".into(), Json::u64(c.prefetch_throttled)),
        ("ds".into(), Json::u64(c.dep_stall_cycles)),
        ("ms".into(), Json::u64(c.mlp_stall_cycles)),
        ("id".into(), Json::u64(c.idle_cycles)),
        ("pc".into(), Json::Arr(pc)),
    ])
}

fn encode_epoch(e: &EpochTraffic) -> Json {
    Json::Obj(vec![
        ("r".into(), Json::Arr(e.read_bytes.iter().map(|&b| Json::u64(b)).collect())),
        ("w".into(), Json::Arr(e.write_bytes.iter().map(|&b| Json::u64(b)).collect())),
    ])
}

/// Decodes the canonical rendering of an outcome (the bytes
/// `encode_outcome(o).render()` produced) back into the outcome.
pub(crate) fn decode_payload(payload: &str) -> Result<RunOutcome, JsonError> {
    let mut c = Cursor { src: payload, pos: 0 };
    // Struct literals evaluate their fields in the order written, which
    // here is the encoder's order.
    let outcome = RunOutcome {
        apps: c.key("{\"apps\":")?.seq(Cursor::app)?,
        horizon: c.key(",\"horizon\":")?.u64()?,
        truncated: c.key(",\"trunc\":")?.bool()?,
        stalled: c.key(",\"stall\":")?.bool()?,
        epochs: c.key(",\"epochs\":")?.seq(Cursor::epoch)?,
        epoch_cycles: c.key(",\"epoch_cycles\":")?.u64()?,
        freq_ghz: c.key(",\"freq_ghz\":")?.f64()?,
    };
    c.key("}")?;
    if c.pos != payload.len() {
        return c.fail("end of payload");
    }
    Ok(outcome)
}

/// A read position in a canonical payload.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, JsonError> {
        Err(JsonError(format!("expected {what} at byte {}", self.pos)))
    }

    fn rest(&self) -> &[u8] {
        &self.src.as_bytes()[self.pos..]
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        // Literals are a few bytes long: an inlined byte loop is cheaper
        // than the `memcmp` call `starts_with` makes for every key.
        let rest = self.rest();
        let hit = rest.len() >= lit.len() && rest.iter().zip(lit.as_bytes()).all(|(a, b)| a == b);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// Consumes the punctuation and key `lit`, which must come next.
    fn key(&mut self, lit: &str) -> Result<&mut Self, JsonError> {
        if self.eat(lit) {
            Ok(self)
        } else {
            self.fail(&format!("{lit:?}"))
        }
    }

    /// A `u64` in plain decimal digits, with no sign and no leading zero.
    fn u64(&mut self) -> Result<u64, JsonError> {
        let rest = self.rest();
        let mut value = 0u64;
        let mut digits = 0;
        while let Some(&b) = rest.get(digits).filter(|b| b.is_ascii_digit()) {
            let next = value.checked_mul(10).and_then(|v| v.checked_add(u64::from(b - b'0')));
            match next {
                Some(v) => value = v,
                None => return self.fail("a u64 in range"),
            }
            digits += 1;
        }
        if digits == 0 || (digits > 1 && rest[0] == b'0') {
            return self.fail("a canonical u64");
        }
        self.pos += digits;
        Ok(value)
    }

    fn bool(&mut self) -> Result<bool, JsonError> {
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            self.fail("a bool")
        }
    }

    /// A finite `f64` spelled exactly as [`Json::f64`] renders it.
    fn f64(&mut self) -> Result<f64, JsonError> {
        let len = self
            .rest()
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let token = &self.src[self.pos..self.pos + len];
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() && Json::f64(v).render() == token => {
                self.pos += len;
                Ok(v)
            }
            _ => self.fail("a canonical f64"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let (s, end) = canonical_string(self.src, self.pos)?;
        self.pos = end;
        Ok(s)
    }

    /// A `[..]` array of `item`s separated by commas.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.key("[")?;
        let mut out = Vec::new();
        if self.eat("]") {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat("]") {
                return Ok(out);
            }
            self.key(",")?;
        }
    }

    fn app(&mut self) -> Result<AppResult, JsonError> {
        let app = AppResult {
            name: self.key("{\"name\":")?.string()?,
            role: self.key(",\"role\":")?.role()?,
            threads: {
                let threads = self.key(",\"threads\":")?.u64()?;
                usize::try_from(threads).or_else(|_| self.fail("a thread count"))?
            },
            elapsed_cycles: self.key(",\"elapsed\":")?.u64()?,
            counters: self.key(",\"ctr\":")?.counters()?,
            per_core: self.key(",\"per_core\":")?.seq(Cursor::counters)?,
            bg_iterations: self.key(",\"bg_iters\":")?.u64()?,
            read_bytes: self.key(",\"rd\":")?.u64()?,
            write_bytes: self.key(",\"wr\":")?.u64()?,
        };
        self.key("}")?;
        Ok(app)
    }

    fn role(&mut self) -> Result<Role, JsonError> {
        if self.eat("\"fg\"") {
            Ok(Role::Foreground)
        } else if self.eat("\"bg\"") {
            Ok(Role::Background)
        } else {
            self.fail("role \"fg\" or \"bg\"")
        }
    }

    fn counters(&mut self) -> Result<CoreCounters, JsonError> {
        let c = CoreCounters {
            instructions: self.key("{\"i\":")?.u64()?,
            cycles: self.key(",\"c\":")?.u64()?,
            loads: self.key(",\"ld\":")?.u64()?,
            stores: self.key(",\"st\":")?.u64()?,
            l1_hits: self.key(",\"l1h\":")?.u64()?,
            l2_hits: self.key(",\"l2h\":")?.u64()?,
            l2_misses: self.key(",\"l2m\":")?.u64()?,
            llc_hits: self.key(",\"llh\":")?.u64()?,
            llc_misses: self.key(",\"llm\":")?.u64()?,
            inflight_merges: self.key(",\"mg\":")?.u64()?,
            pending_cycles: self.key(",\"pd\":")?.u64()?,
            prefetch_issued: self.key(",\"pi\":")?.u64()?,
            prefetch_useful: self.key(",\"pu\":")?.u64()?,
            prefetch_late: self.key(",\"pl\":")?.u64()?,
            prefetch_throttled: self.key(",\"pt\":")?.u64()?,
            dep_stall_cycles: self.key(",\"ds\":")?.u64()?,
            mlp_stall_cycles: self.key(",\"ms\":")?.u64()?,
            idle_cycles: self.key(",\"id\":")?.u64()?,
            pc_stats: self.key(",\"pc\":")?.seq(Cursor::pc_row)?,
        };
        self.key("}")?;
        Ok(c)
    }

    /// One `[pc, accesses, l2_misses, pending_cycles]` row.
    fn pc_row(&mut self) -> Result<PcCounters, JsonError> {
        let row = PcCounters {
            pc: {
                let pc = self.key("[")?.u64()?;
                u32::try_from(pc).or_else(|_| self.fail("a pc within u32"))?
            },
            accesses: self.key(",")?.u64()?,
            l2_misses: self.key(",")?.u64()?,
            pending_cycles: self.key(",")?.u64()?,
        };
        self.key("]")?;
        Ok(row)
    }

    fn epoch(&mut self) -> Result<EpochTraffic, JsonError> {
        let e = EpochTraffic {
            read_bytes: self.key("{\"r\":")?.seq(Cursor::u64)?,
            write_bytes: self.key(",\"w\":")?.seq(Cursor::u64)?,
        };
        self.key("}")?;
        Ok(e)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully populated outcome exercising every field of the codec.
    pub(crate) fn sample_outcome() -> RunOutcome {
        let counters = CoreCounters {
            instructions: 1_000_000,
            cycles: 2_500_000,
            loads: 300_000,
            stores: 100_000,
            l1_hits: 350_000,
            l2_hits: 30_000,
            l2_misses: 20_000,
            llc_hits: 12_000,
            llc_misses: 7_000,
            inflight_merges: 1_000,
            pending_cycles: 1_500_000,
            prefetch_issued: 5_000,
            prefetch_useful: 4_000,
            prefetch_late: 300,
            prefetch_throttled: 20,
            dep_stall_cycles: 400_000,
            mlp_stall_cycles: 90_000,
            idle_cycles: 1_234,
            pc_stats: vec![
                PcCounters { pc: 3, accesses: 17, l2_misses: 5, pending_cycles: 999 },
                PcCounters { pc: 8, accesses: 2, l2_misses: 0, pending_cycles: 0 },
            ],
        };
        RunOutcome {
            apps: vec![
                AppResult {
                    name: "pr.graph".into(),
                    role: Role::Foreground,
                    threads: 2,
                    elapsed_cycles: u64::MAX / 3,
                    counters: counters.clone(),
                    per_core: vec![counters.clone(), counters.clone()],
                    bg_iterations: 0,
                    read_bytes: 123_456_789,
                    write_bytes: 987_654,
                },
                AppResult {
                    name: "stream \"quoted\"\n".into(),
                    role: Role::Background,
                    threads: 1,
                    elapsed_cycles: 42,
                    counters: CoreCounters::default(),
                    per_core: vec![],
                    bg_iterations: 7,
                    read_bytes: 0,
                    write_bytes: 1,
                },
            ],
            horizon: 123_456_789_012,
            truncated: true,
            stalled: true,
            epochs: vec![
                EpochTraffic { read_bytes: vec![64, 0], write_bytes: vec![0, 128] },
                EpochTraffic { read_bytes: vec![], write_bytes: vec![] },
            ],
            epoch_cycles: 2_600_000,
            freq_ghz: 2.7,
        }
    }

    #[test]
    fn outcome_round_trips_exactly() {
        let o = sample_outcome();
        let back = decode_payload(&encode_outcome(&o).render()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn encoding_is_stable_across_calls() {
        let o = sample_outcome();
        assert_eq!(encode_outcome(&o).render(), encode_outcome(&o).render());
    }
}

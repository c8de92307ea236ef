//! Record properties of the run journal over random outcomes: a rendered
//! record parses back to exactly its key and outcome, any single-byte
//! change to its payload is rejected, and lines that are not the
//! canonical rendering — padded, or carrying a `pc` wider than `u32` —
//! are corrupt rather than silently read.

use cochar_machine::counters::PcCounters;
use cochar_machine::{AppResult, CoreCounters, EpochTraffic, Role, RunOutcome, StableHasher};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::{RunKey, StoreError};
use proptest::prelude::*;
use proptest::TestRng;

/// Name fragments: quotes, escapes, newlines, control characters and
/// multi-byte text of every UTF-8 width.
const PIECES: &[&str] = &[
    "pr.graph", "\"", "\\", "\n", "\r\t", "\u{1}", "\u{1f}", "\u{7f}", "/", "é", "€", "𝄞",
    "\u{2028}", " ", "mcf",
];

/// Counter values biased towards the edges: zero, small, huge, `u64::MAX`.
fn counter(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => rng.below(1000),
        2 => u64::MAX - rng.below(2),
        _ => rng.next_u64(),
    }
}

fn name(rng: &mut TestRng) -> String {
    (0..rng.below(5)).map(|_| PIECES[rng.below(PIECES.len() as u64) as usize]).collect()
}

fn counters(rng: &mut TestRng) -> CoreCounters {
    let mut c = CoreCounters {
        instructions: counter(rng),
        cycles: counter(rng),
        loads: counter(rng),
        stores: counter(rng),
        l1_hits: counter(rng),
        l2_hits: counter(rng),
        l2_misses: counter(rng),
        llc_hits: counter(rng),
        llc_misses: counter(rng),
        inflight_merges: counter(rng),
        pending_cycles: counter(rng),
        prefetch_issued: counter(rng),
        prefetch_useful: counter(rng),
        prefetch_late: counter(rng),
        prefetch_throttled: counter(rng),
        dep_stall_cycles: counter(rng),
        mlp_stall_cycles: counter(rng),
        idle_cycles: counter(rng),
        pc_stats: vec![],
    };
    for _ in 0..rng.below(3) {
        let pc = if rng.below(3) == 0 { u32::MAX } else { rng.next_u64() as u32 };
        c.pc_stats.push(PcCounters {
            pc,
            accesses: counter(rng),
            l2_misses: counter(rng),
            pending_cycles: counter(rng),
        });
    }
    c
}

fn freq(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => 2.7,
        1 => rng.below(10_000) as f64 / 1000.0,
        2 => -rng.unit_f64() * 1e-9,
        // Any finite bit pattern: subnormals, -0.0, huge exponents.
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A random outcome drawn from `seed`; every collection may be empty.
fn outcome(seed: u64) -> RunOutcome {
    let mut rng = TestRng::from_label(&seed.to_string());
    let apps = (0..rng.below(3))
        .map(|_| AppResult {
            name: name(&mut rng),
            role: if rng.below(2) == 0 { Role::Foreground } else { Role::Background },
            threads: rng.below(65) as usize,
            elapsed_cycles: counter(&mut rng),
            counters: counters(&mut rng),
            per_core: (0..rng.below(3)).map(|_| counters(&mut rng)).collect(),
            bg_iterations: counter(&mut rng),
            read_bytes: counter(&mut rng),
            write_bytes: counter(&mut rng),
        })
        .collect();
    let epochs = (0..rng.below(3))
        .map(|_| EpochTraffic {
            read_bytes: (0..rng.below(3)).map(|_| counter(&mut rng)).collect(),
            write_bytes: (0..rng.below(3)).map(|_| counter(&mut rng)).collect(),
        })
        .collect();
    RunOutcome {
        apps,
        horizon: counter(&mut rng),
        truncated: rng.below(2) == 0,
        stalled: rng.below(2) == 0,
        epochs,
        epoch_cycles: counter(&mut rng),
        freq_ghz: freq(&mut rng),
    }
}

/// Byte offset of the payload in a rendered line: the frame's
/// `{"k":"<16 hex>","c":"<16 hex>","o":` prefix.
const PAYLOAD_AT: usize = 51;

/// Re-frames a line around `payload` with a checksum that matches it, so
/// only the payload decoder can reject it.
fn reframe(line: &str, payload: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(payload);
    format!("{}{:016x}{}{payload}}}", &line[..29], h.finish(), &line[45..PAYLOAD_AT])
}

fn is_corrupt(line: &str) -> bool {
    matches!(parse_record(line), Err(StoreError::Corrupt(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rendered_records_parse_back_exactly(seed in any::<u64>(), key in any::<u64>()) {
        let o = outcome(seed);
        let line = render_record(RunKey(key), &o);
        let (k, back) = parse_record(&line).expect("a rendered record parses");
        prop_assert_eq!(k, RunKey(key));
        prop_assert_eq!(back.freq_ghz.to_bits(), o.freq_ghz.to_bits());
        prop_assert_eq!(back, o);
    }

    #[test]
    fn any_payload_byte_change_is_rejected(
        seed in any::<u64>(),
        at in any::<u64>(),
        byte in any::<u32>(),
    ) {
        let line = render_record(RunKey(seed), &outcome(seed));
        let mut bytes = line.clone().into_bytes();
        let payload_len = line.len() - PAYLOAD_AT - 1;
        let i = PAYLOAD_AT + (at % payload_len as u64) as usize;
        let old = bytes[i];
        bytes[i] = if byte as u8 == old { old ^ 0x01 } else { byte as u8 };
        // A change that breaks UTF-8 never reaches the parser: replay
        // classifies a non-UTF-8 line as corrupt on its own.
        if let Ok(changed) = String::from_utf8(bytes) {
            prop_assert!(is_corrupt(&changed), "byte {i} change accepted");
        }
    }

    #[test]
    fn padded_lines_are_rejected(seed in any::<u64>(), pad in 0usize..4) {
        let line = render_record(RunKey(seed), &outcome(seed));
        let ws = [" ", "\t", "\r", "\n"][pad];
        prop_assert!(is_corrupt(&format!("{ws}{line}")));
        prop_assert!(is_corrupt(&format!("{line}{ws}")));
        // Padding inside the payload fails even under a matching checksum.
        let payload = &line[PAYLOAD_AT..line.len() - 1];
        prop_assert!(is_corrupt(&reframe(&line, &format!("{ws}{payload}"))));
        prop_assert!(is_corrupt(&reframe(&line, &payload.replacen(':', &format!(":{ws}"), 1))));
    }
}

#[test]
fn reframing_an_unchanged_payload_is_a_no_op() {
    let line = render_record(RunKey(3), &outcome(3));
    assert_eq!(reframe(&line, &line[PAYLOAD_AT..line.len() - 1]), line);
}

#[test]
fn pc_wider_than_u32_is_rejected() {
    let mut o = outcome(0);
    o.apps = vec![AppResult {
        name: "a".into(),
        role: Role::Foreground,
        threads: 1,
        elapsed_cycles: 1,
        counters: CoreCounters {
            pc_stats: vec![PcCounters {
                pc: u32::MAX,
                accesses: 1,
                l2_misses: 2,
                pending_cycles: 3,
            }],
            ..CoreCounters::default()
        },
        per_core: vec![],
        bg_iterations: 0,
        read_bytes: 0,
        write_bytes: 0,
    }];
    let line = render_record(RunKey(5), &o);
    assert_eq!(parse_record(&line).unwrap().1, o);
    let payload = &line[PAYLOAD_AT..line.len() - 1];
    let row = "[4294967295,1,2,3]";
    assert!(payload.contains(row));
    // One past u32::MAX would once have been truncated to pc 0.
    let wide = reframe(&line, &payload.replace(row, "[4294967296,1,2,3]"));
    assert!(is_corrupt(&wide));
    // Overflowing u64 itself is rejected too.
    let huge = reframe(&line, &payload.replace(row, "[4294967295,18446744073709551616,2,3]"));
    assert!(is_corrupt(&huge));
}

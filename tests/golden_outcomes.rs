//! Golden outcome corpus: a `StableHasher` digest of every canonical
//! outcome rendering (`encode_outcome(&out).render()`, the bytes the run
//! store journals) over a fixed set of runs, plus the per-core counter
//! conservation laws checked on each of them.
//!
//! Every engine optimization must leave these bytes unchanged. The cases,
//! all at `MachineConfig::tiny()` and `Scale::tiny()`:
//!
//! * `solo/<app>`: every registry workload alone, one thread (the 25
//!   applications and the two mini-benchmarks);
//! * `pair/<round>/<fg>+<bg>/s<seed>`: 12 foreground/background pairs
//!   drawn by SplitMix64 from seed `0x7a1e_5eed`;
//! * `mt/<fg>+<bg>`: two 2+2-thread pairs on 4 cores, which exercise
//!   cross-core interleavings and inclusive back-invalidation;
//! * `truncated/<app>`: `max_cycles = 61_337`, a cap that lands
//!   mid-quantum, so any consumption past it would leak into counters;
//! * `msr-off/fotonik3d`: every prefetcher disabled.
//!
//! The fixture `golden_outcomes.txt` was captured at commit c1b89ed. Its
//! machine crate still carried a second, pre-optimization engine beside
//! the optimized one, and an equivalence suite proved the two
//! byte-identical on exactly these cases, so the digests are also that
//! second engine's output. Regenerate the fixture with
//!
//! ```text
//! cargo test --test golden_outcomes -- --ignored regenerate_fixture
//! ```
//!
//! only when an outcome change is intended, and say so.

use cochar::machine::StableHasher;
use cochar::prelude::*;
use cochar_store::codec::encode_outcome;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_outcomes.txt");

const HEADER: &str = "# case digest (StableHasher of the canonical rendering, hex) length (bytes)";

const FG_BASE: u64 = 1 << 40;
const BG_BASE: u64 = 2 << 40;

/// The corpus groups, in fixture order.
const GROUPS: [&str; 5] = ["solo", "pair", "mt", "truncated", "msr-off"];

/// SplitMix64: deterministic pair sampling without external crates.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn app(spec: &WorkloadSpec, role: Role, base: u64, seed: u64, threads: usize) -> AppSpec {
    AppSpec { name: spec.name.into(), factory: spec.factory.clone(), threads, role, base, seed }
}

/// One corpus run: its fixture name, the machine, and the placement.
struct Case {
    name: String,
    cfg: MachineConfig,
    msr: Msr,
    apps: Vec<AppSpec>,
}

fn case(name: String, cfg: &MachineConfig, apps: Vec<AppSpec>) -> Case {
    Case { name, cfg: cfg.clone(), msr: Msr::all_on(), apps }
}

/// The cases of one group, in fixture order.
fn cases(group: &str) -> Vec<Case> {
    let reg = Registry::new(Scale::tiny());
    let tiny = MachineConfig::tiny();
    let mut out = Vec::new();
    match group {
        "solo" => {
            for spec in reg.all() {
                let apps = vec![app(spec, Role::Foreground, FG_BASE, 1, 1)];
                out.push(case(format!("solo/{}", spec.name), &tiny, apps));
            }
        }
        "pair" => {
            let all = reg.all();
            let mut rng = Rng(0x7a1e_5eed);
            for round in 0..12 {
                let fg = &all[(rng.next() as usize) % all.len()];
                let bg = &all[(rng.next() as usize) % all.len()];
                let seed = 1 + rng.next() % 1000;
                let apps = vec![
                    app(fg, Role::Foreground, FG_BASE, seed, 1),
                    app(bg, Role::Background, BG_BASE, seed ^ 0x5EED, 1),
                ];
                let name = format!("pair/{round}/{}+{}/s{seed}", fg.name, bg.name);
                out.push(case(name, &tiny, apps));
            }
        }
        "mt" => {
            let mut cfg = tiny.clone();
            cfg.cores = 4;
            for (fg, bg) in [("stream", "mcf"), ("G-CC", "CIFAR")] {
                let apps = vec![
                    app(reg.get(fg).unwrap(), Role::Foreground, FG_BASE, 7, 2),
                    app(reg.get(bg).unwrap(), Role::Background, BG_BASE, 7 ^ 0x5EED, 2),
                ];
                out.push(case(format!("mt/{fg}+{bg}"), &cfg, apps));
            }
        }
        "truncated" => {
            let mut cfg = tiny.clone();
            cfg.max_cycles = 61_337;
            for name in ["mcf", "fotonik3d"] {
                let apps = vec![app(reg.get(name).unwrap(), Role::Foreground, FG_BASE, 11, 1)];
                out.push(case(format!("truncated/{name}"), &cfg, apps));
            }
        }
        "msr-off" => {
            let apps = vec![app(reg.get("fotonik3d").unwrap(), Role::Foreground, FG_BASE, 3, 1)];
            let mut c = case("msr-off/fotonik3d".into(), &tiny, apps);
            c.msr = Msr::all_off();
            out.push(c);
        }
        _ => panic!("unknown corpus group {group}"),
    }
    out
}

/// Runs one case and returns its outcome and fixture line.
fn run(case: &Case) -> (RunOutcome, String) {
    let out = Machine::new(case.cfg.clone()).with_msr(case.msr).run(&case.apps);
    let rendered = encode_outcome(&out).render();
    let mut h = StableHasher::new();
    h.write_str(&rendered);
    let line = format!("{} {:016x} {}", case.name, h.finish(), rendered.len());
    (out, line)
}

/// Per-core counter conservation laws of one run.
///
/// * Every L2 miss is served exactly once: by the LLC, by memory, or by
///   merging with an in-flight fill.
/// * Every L1 miss reaches the L2, except the one access a core may have
///   paused on when the run ended early: a truncated or stalled run, or a
///   background core cut off when the foreground finished.
fn check_counter_laws(name: &str, out: &RunOutcome) {
    let cut = out.truncated || out.stalled;
    for a in &out.apps {
        for (k, c) in a.per_core.iter().enumerate() {
            let at = format!("{name}: {} core {k}", a.name);
            assert_eq!(
                c.l2_misses,
                c.llc_hits + c.llc_misses + c.inflight_merges,
                "{at}: l2_misses != llc_hits + llc_misses + inflight_merges"
            );
            let reached_l2 = c.l2_hits + c.l2_misses;
            let unserved = c
                .l1_misses()
                .checked_sub(reached_l2)
                .unwrap_or_else(|| panic!("{at}: more L2 lookups than L1 misses"));
            let bound = if a.role == Role::Foreground && !cut { 0 } else { 1 };
            assert!(unserved <= bound, "{at}: {unserved} L1 misses never reached the L2");
        }
    }
}

/// Runs one group, checks its counter laws, and compares its lines with
/// the fixture's lines of that group.
fn check_group(group: &str) {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    let prefix = format!("{group}/");
    let expected: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(&prefix))
        .collect();
    let mut actual = Vec::new();
    for case in cases(group) {
        let (out, line) = run(&case);
        assert_eq!(
            out.truncated,
            group == "truncated",
            "{}: truncated = {}",
            case.name,
            out.truncated
        );
        check_counter_laws(&case.name, &out);
        actual.push(line);
    }
    assert_eq!(actual.len(), expected.len(), "{group}: case count changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("  want {e}\n  got  {a}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} {group} cases drifted from the golden outcomes:\n{}",
        drifted.len(),
        actual.len(),
        drifted.join("\n")
    );
}

#[test]
fn every_workload_solo_run_matches_the_corpus() {
    check_group("solo");
}

#[test]
fn seeded_pair_sample_matches_the_corpus() {
    check_group("pair");
}

#[test]
fn multithreaded_pairs_match_the_corpus() {
    check_group("mt");
}

#[test]
fn truncated_runs_match_the_corpus() {
    check_group("truncated");
}

#[test]
fn prefetcher_off_run_matches_the_corpus() {
    check_group("msr-off");
}

/// Every fixture line belongs to a group some test above checks.
#[test]
fn fixture_holds_only_known_groups() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    for l in fixture.lines().filter(|l| !l.starts_with('#')) {
        let group = l.split('/').next().unwrap_or_default();
        assert!(GROUPS.contains(&group), "fixture line outside every group: {l}");
    }
}

/// Rewrites the fixture from the current engine (see the module doc).
#[test]
#[ignore]
fn regenerate_fixture() {
    let mut text = String::from(HEADER);
    text.push('\n');
    for group in GROUPS {
        for case in cases(group) {
            text.push_str(&run(&case).1);
            text.push('\n');
        }
    }
    std::fs::write(FIXTURE, text).expect("write golden fixture");
}

//! Golden digests of the shared graph input and of every slot the eight
//! graph workloads emit.
//!
//! The G-* and P-* applications all traverse one R-MAT graph, and the
//! G-SSSP and P-SSSP serial sections are sized from its edge visits. Any
//! change to graph generation, to the algorithm jobs, or to how and when
//! the registry builds them must leave these digests unchanged:
//!
//! * `rmat/...`: the edge list of `RmatConfig::skewed(14, 16, 0xC0C4A5)`,
//!   the graph `Scale::for_config(&MachineConfig::bench())` builds;
//! * `<app>/t<threads>/<thread>`: every slot of each graph spec at
//!   `Scale::tiny()`, for 1, 2 and 4 threads, on the first and the last
//!   thread. Every G-SSSP and P-SSSP thread starts with the replicated
//!   serial prefix.
//!
//! The fixture `golden_graph.txt` was captured at commit 1414cc3, while
//! the registry still built the graph eagerly, with
//!
//! ```text
//! cargo test -p cochar-workloads --test golden_graph -- --ignored regenerate_fixture
//! ```
//!
//! Regenerate it only when an output change is intended, and say so.

use cochar_graphs::RmatConfig;
use cochar_machine::StableHasher;
use cochar_trace::{Slot, StreamParams};
use cochar_workloads::{Domain, Registry, Scale};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_graph.txt");

const HEADER: &str = "# case digest (StableHasher, hex) count (edges or slots)";

/// Feeds one slot into the digest, tagged by kind.
fn feed(h: &mut StableHasher, slot: Slot) {
    match slot {
        Slot::Compute(n) => {
            h.write_u8(0);
            h.write_u32(n);
        }
        Slot::Load { addr, pc, dep } => {
            h.write_u8(1);
            h.write_u64(addr);
            h.write_u32(pc);
            h.write_bool(dep);
        }
        Slot::Store { addr, pc } => {
            h.write_u8(2);
            h.write_u64(addr);
            h.write_u32(pc);
        }
    }
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();

    let cfg = RmatConfig::skewed(14, 16, 0xC0C4A5);
    let edges = cfg.generate();
    let mut h = StableHasher::new();
    for &(src, dst) in &edges {
        h.write_u32(src);
        h.write_u32(dst);
    }
    out.push(format!("rmat/skewed-14-16-c0c4a5 {:016x} {}", h.finish(), edges.len()));

    let registry = Registry::new(Scale::tiny());
    for spec in registry.by_domain(Domain::Graph) {
        for threads in [1usize, 2, 4] {
            let mut ends = vec![0];
            if threads > 1 {
                ends.push(threads - 1);
            }
            for thread in ends {
                let p = StreamParams { thread, threads, base: 1 << 40, seed: 7 };
                let mut stream = spec.factory.build(&p);
                let mut h = StableHasher::new();
                let mut count = 0u64;
                while let Some(slot) = stream.next_slot() {
                    feed(&mut h, slot);
                    count += 1;
                }
                out.push(format!("{}/t{threads}/{thread} {:016x} {count}", spec.name, h.finish()));
            }
        }
    }
    out
}

#[test]
fn graph_input_and_streams_match_the_golden_digests() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = lines();
    assert_eq!(actual.len(), expected.len(), "case count changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("  want {e}\n  got  {a}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} cases drifted from the golden digests:\n{}",
        drifted.len(),
        actual.len(),
        drifted.join("\n")
    );
}

#[test]
#[ignore]
fn regenerate_fixture() {
    let mut text = String::from(HEADER);
    text.push('\n');
    for l in lines() {
        text.push_str(&l);
        text.push('\n');
    }
    std::fs::write(FIXTURE, text).expect("write golden fixture");
}

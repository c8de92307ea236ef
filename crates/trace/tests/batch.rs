//! Batched-fill equivalence: for every generator, `fill` must be a pure
//! batching transport — the expanded buffer contents equal what repeated
//! `next_slot` calls yield, slot for slot, under arbitrary (including
//! adversarial, group-splitting) refill budgets.
//!
//! This is the trace-level half of the engine's byte-identity argument:
//! the golden outcome corpus (`tests/golden_outcomes.rs`) pins the
//! batched engine's full `RunOutcome`s; these properties prove every
//! stream the engine can be fed agrees at the slot level, so a future
//! hand-written `fill` cannot silently resequence.

use std::sync::Arc;

use proptest::prelude::*;

use cochar_trace::gen::{
    BarrierLoop, BlockedGemm, Chain, ComputeStream, ConflictStream, Gather, Interleave,
    PointerChase, RandomAccess, Seq, Stencil, Strided, Triad,
};
use cochar_trace::slot::{LoopingStream, SlotBuf};
use cochar_trace::{ArrayRef, Region, Slot, SlotStream, StreamParams, VecStream};

fn arr(count: u64, elem: u64) -> ArrayRef {
    Region::new(0, count * elem + 1024).array(count, elem)
}

/// Consumes `next` slot by slot and `fill` through cleared buffers whose
/// budgets cycle through `caps` (mirroring the engine's refill pattern),
/// comparing the first `limit` slots. Both streams must be freshly built
/// from identical parameters.
fn assert_fill_matches_next(
    next: &mut dyn SlotStream,
    fill: &mut dyn SlotStream,
    caps: &[usize],
    limit: usize,
) {
    let mut expect = Vec::with_capacity(limit);
    while expect.len() < limit {
        match next.next_slot() {
            Some(s) => expect.push(s),
            None => break,
        }
    }
    let mut got: Vec<Slot> = Vec::with_capacity(expect.len());
    let mut buf = SlotBuf::new();
    let mut cap_i = 0;
    while got.len() < expect.len() {
        buf.clear();
        buf.set_cap(caps[cap_i % caps.len()]);
        cap_i += 1;
        let pulled = fill.fill(&mut buf);
        let expanded: Vec<Slot> = buf.iter_slots().collect();
        prop_assert_eq!(
            pulled,
            expanded.len(),
            "fill's return must count exactly the source slots it buffered"
        );
        if pulled == 0 {
            // Exhaustion contract: 0 with room left means the stream has
            // ended for good (LoopingStream may return short batches, but
            // never a spurious empty one).
            prop_assert!(buf.has_room());
            prop_assert!(fill.next_slot().is_none(), "fill returned 0 on a live stream");
            break;
        }
        got.extend(expanded);
    }
    // The fill side may legitimately overshoot `limit` mid-batch; compare
    // the common prefix and require it covers everything `next` produced.
    prop_assert!(got.len() >= expect.len().min(limit));
    got.truncate(expect.len());
    prop_assert_eq!(got, expect);
    // If `next` ended before the limit, `fill` must agree the stream is dry.
    if expect.len() < limit {
        buf.clear();
        prop_assert_eq!(fill.fill(&mut buf), 0, "next_slot ended but fill kept producing");
    }
}

/// Budget schedules worth stressing: tiny budgets split element groups
/// mid-way, 1 forces a refill per slot, large ones exercise whole-run
/// coalescing. Proptest picks arbitrary mixtures.
fn caps() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..300, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seq_fill_matches_next(
        n in 1u64..400, compute in 0u32..4, store_every in 0u64..4, caps in caps()
    ) {
        let a = arr(n, 8);
        let mut s1 = Seq::full(a, compute, store_every, 1);
        let mut s2 = Seq::full(a, compute, store_every, 1);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn strided_fill_matches_next(
        stride in 1u64..33, accesses in 1u64..500, compute in 0u32..3, caps in caps()
    ) {
        let a = arr(256, 8);
        let mut s1 = Strided::new(a, stride, accesses, compute, 2);
        let mut s2 = Strided::new(a, stride, accesses, compute, 2);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn triad_fill_matches_next(n in 1u64..200, iters in 1u64..4, caps in caps()) {
        let mut r = Region::new(0, 3 * n * 8 + 256);
        let (a, b, c) = (r.array(n, 8), r.array(n, 8), r.array(n, 8));
        let mut s1 = Triad::new(a, b, c, iters);
        let mut s2 = Triad::new(a, b, c, iters);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn stencil_fill_matches_next(
        n in 8u64..128, points in 1u32..6, plane in 1u64..32, cpp in 0u32..3, caps in caps()
    ) {
        let mut r = Region::new(0, 2 * n * 8 + 256);
        let (src, dst) = (r.array(n, 8), r.array(n, 8));
        let mut s1 = Stencil::new(src, dst, 0, n, points, plane, cpp, 0);
        let mut s2 = Stencil::new(src, dst, 0, n, points, plane, cpp, 0);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn gemm_fill_matches_next(
        tile in 1u64..64, tiles in 1u64..6, reuse in 0u32..3, cpa in 0u32..4, caps in caps()
    ) {
        let mut r = Region::new(0, 2 * 1024 * 8 + 256);
        let (a, b) = (r.array(1024, 8), r.array(1024, 8));
        let mut s1 = BlockedGemm::new(a, b, tile, tiles, reuse, cpa, 0, 0);
        let mut s2 = BlockedGemm::new(a, b, tile, tiles, reuse, cpa, 0, 0);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn compute_stream_fill_matches_next(
        total in 1u64..100_000, batch in 1u32..5000, caps in caps()
    ) {
        let mut s1 = ComputeStream::new(total, batch);
        let mut s2 = ComputeStream::new(total, batch);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn random_access_fill_matches_next(
        accesses in 1u64..500, store_pct in 0u8..=100, seed in any::<u64>(), caps in caps()
    ) {
        let a = arr(128, 8);
        let mut s1 = RandomAccess::new(a, accesses, 1, store_pct, false, seed, 3);
        let mut s2 = RandomAccess::new(a, accesses, 1, store_pct, false, seed, 3);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn pointer_chase_fill_matches_next(
        accesses in 1u64..500, compute in 0u32..3, seed in any::<u64>(), caps in caps()
    ) {
        let a = arr(128, 8);
        let mut s1 = PointerChase::new(a, accesses, compute, seed, 4);
        let mut s2 = PointerChase::new(a, accesses, compute, seed, 4);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn gather_fill_matches_next(
        end in 1u64..200, hot_pct in 0u8..=100, seed in any::<u64>(), caps in caps()
    ) {
        let mut r = Region::new(0, 4096);
        let (index, data) = (r.array(200, 8), r.array(200, 8));
        let mut s1 = Gather::new(index, data, 0, end, 1, hot_pct, 100, 3, seed, 5);
        let mut s2 = Gather::new(index, data, 0, end, 1, hot_pct, 100, 3, seed, 5);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn conflict_stream_fill_matches_next(
        accesses in 1u64..400, seed in any::<u64>(), caps in caps()
    ) {
        let a = arr(512, 64);
        let mut s1 = ConflictStream::new(a, accesses, 512, 4, seed, 6);
        let mut s2 = ConflictStream::new(a, accesses, 512, 4, seed, 6);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn chain_fill_matches_next(n in 1u64..100, compute in 0u32..3, caps in caps()) {
        let a = arr(n, 8);
        let parts = |n, compute| -> Vec<Box<dyn SlotStream>> {
            vec![
                Box::new(Seq::full(a, compute, 0, 1)),
                Box::new(ComputeStream::new(500, 100)),
                Box::new(Seq::full(arr(n, 8), 0, 2, 7)),
            ]
        };
        let mut s1 = Chain::new(parts(n, compute));
        let mut s2 = Chain::new(parts(n, compute));
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn interleave_fill_matches_next(
        n in 4u64..100, q1 in 1u32..9, q2 in 1u32..9, caps in caps()
    ) {
        let mk = |n, q1, q2| {
            let children: Vec<(Box<dyn SlotStream>, u32)> = vec![
                (Box::new(Seq::full(arr(n, 8), 0, 0, 1)) as Box<dyn SlotStream>, q1),
                (Box::new(Triad::new(arr(n, 8), arr(n, 8), arr(n, 8), 1)), q2),
                (Box::new(ComputeStream::new(200, 50)), 3),
            ];
            Interleave::new(children)
        };
        let mut s1 = mk(n, q1, q2);
        let mut s2 = mk(n, q1, q2);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn barrier_loop_fill_matches_next(
        iters in 1u64..5, barrier in 0u64..300, n in 1u64..50, caps in caps()
    ) {
        let mk = |iters, barrier, n: u64| {
            BarrierLoop::new(
                iters,
                barrier,
                Box::new(move |i| {
                    Box::new(Seq::full(arr(n + i, 8), (i % 3) as u32, 0, 1))
                        as Box<dyn SlotStream>
                }),
            )
        };
        let mut s1 = mk(iters, barrier, n);
        let mut s2 = mk(iters, barrier, n);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }

    #[test]
    fn looping_stream_fill_matches_next(n in 1u64..60, compute in 0u32..3, caps in caps()) {
        // Infinite stream: compare a fixed-length prefix that spans
        // several restarts, including restarts landing mid-buffer.
        let factory = Arc::new(move |_: &StreamParams| {
            Box::new(Seq::full(arr(n, 8), compute, 0, 1)) as Box<dyn SlotStream>
        });
        let params = StreamParams { thread: 0, threads: 1, base: 0, seed: 1 };
        let mut s1 = LoopingStream::new(factory.clone(), params);
        let mut s2 = LoopingStream::new(factory, params);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 2048);
    }

    #[test]
    fn vec_stream_fill_matches_next(slots in 0usize..400, caps in caps()) {
        let v: Vec<Slot> = (0..slots)
            .map(|i| match i % 3 {
                0 => Slot::Load { addr: (i as u64) * 64, pc: 1, dep: false },
                1 => Slot::Compute((i % 7) as u32),
                _ => Slot::Store { addr: (i as u64) * 64, pc: 2 },
            })
            .collect();
        let mut s1 = VecStream::new(v.clone());
        let mut s2 = VecStream::new(v);
        assert_fill_matches_next(&mut s1, &mut s2, &caps, 1 << 14);
    }
}

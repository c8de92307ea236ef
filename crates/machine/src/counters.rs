//! Per-core hardware event counters and the paper's derived metrics.
//!
//! The counter set mirrors what the paper collects with Intel VTune and
//! PCM (Sec. VI-A): instructions, cycles, cache hits/misses per level,
//! cycles pending on L2 misses, and prefetch statistics. The derived
//! metrics — CPI, LLC MPKI, L2_PCP, and LL — follow the paper's
//! definitions exactly, including
//! `LL = CPI * L2_PCP / (L2 misses per instruction)`.

use serde::{Deserialize, Serialize};

/// Per-access-site (synthetic program counter) counters — the basis of
/// the paper's Sec. VI code-region attribution, which pins PowerGraph's
/// slowdown on its `gather` function (Figs. 9-10). VTune's hot-spot
/// mapping, in simulator form.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcCounters {
    /// The access-site id (the `pc` on load/store slots).
    pub pc: u32,
    /// Demand accesses issued from this site.
    pub accesses: u64,
    /// L2 misses from this site.
    pub l2_misses: u64,
    /// Cycles pending on shared levels attributed to this site.
    pub pending_cycles: u64,
}

/// Event counters for one core (or aggregated over an application's cores).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreCounters {
    /// Retired instructions (compute units + one per memory access).
    pub instructions: u64,
    /// Elapsed cycles of this core.
    pub cycles: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Accesses that hit in the L1D.
    pub l1_hits: u64,
    /// Accesses that hit in the private L2 (i.e. L1 misses served by L2).
    pub l2_hits: u64,
    /// Accesses that missed the L2 and went to the shared levels.
    pub l2_misses: u64,
    /// L2 misses served by the shared LLC.
    pub llc_hits: u64,
    /// L2 misses that reached memory.
    pub llc_misses: u64,
    /// L2 misses merged with an in-flight (usually prefetch) request.
    pub inflight_merges: u64,
    /// Cycles during which at least one demand L2 miss was outstanding —
    /// the numerator of the paper's L2 Pending Cycle Percent.
    pub pending_cycles: u64,
    /// Prefetch requests issued to memory on behalf of this core.
    pub prefetch_issued: u64,
    /// Prefetched lines touched by a later demand access. A line counts
    /// when its prefetched bit is set, and prefetches that pull a line
    /// from the LLC into L2, or from L2 into L1, set that bit without a
    /// memory request, so this can exceed `prefetch_issued`.
    pub prefetch_useful: u64,
    /// Demand accesses merged with an in-flight fill. Despite the name,
    /// this counts every in-flight merge, whether the fill was issued by
    /// a prefetcher or by another demand miss, so it always equals
    /// `inflight_merges`, and it can be non-zero with every prefetcher
    /// off.
    pub prefetch_late: u64,
    /// Prefetches suppressed by queue-depth throttling.
    pub prefetch_throttled: u64,
    /// Cycles stalled waiting for a producer load (dependent chains).
    pub dep_stall_cycles: u64,
    /// Cycles stalled on MSHR capacity (MLP limit).
    pub mlp_stall_cycles: u64,
    /// Cycles burned without retiring anything — today only the
    /// zero-progress livelock guard, which skips the core to its quantum
    /// deadline. Keeping them on a counter preserves cycle conservation:
    /// every elapsed cycle is attributable, so CPI and stall accounting
    /// cannot silently lose up to a quantum per guard trip.
    pub idle_cycles: u64,
    /// Per-access-site breakdown (sparse; sorted by `pc` after a run).
    pub pc_stats: Vec<PcCounters>,
}

impl CoreCounters {
    /// Memory accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.accesses() - self.l1_hits
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        ratio(self.cycles, self.instructions)
    }

    /// Demand LLC misses per 1000 instructions.
    pub fn llc_mpki(&self) -> f64 {
        1000.0 * ratio(self.llc_misses, self.instructions)
    }

    /// LLC misses per 1000 instructions including hardware-prefetch
    /// misses — what PCM's LLC_MISSES-based MPKI reports (the paper's
    /// LLC MPKI). For prefetch-covered workloads like fotonik3d this is
    /// the number that stays "roughly stable" under interference while
    /// the demand-only count shifts between prefetched and demand misses.
    pub fn llc_mpki_total(&self) -> f64 {
        1000.0 * ratio(self.llc_misses + self.prefetch_issued, self.instructions)
    }

    /// L2 misses per 1000 instructions.
    pub fn l2_mpki(&self) -> f64 {
        1000.0 * ratio(self.l2_misses, self.instructions)
    }

    /// L2 Pending Cycle Percent: fraction of cycles with at least one
    /// outstanding L2 miss, in `[0, 1]`.
    pub fn l2_pcp(&self) -> f64 {
        ratio(self.pending_cycles, self.cycles)
    }

    /// Average latency of a load served from LLC or memory, the paper's
    /// `LL = CPI * L2_PCP / (L2 misses per instruction)`. Algebraically
    /// this reduces to `pending_cycles / l2_misses`, which is how it is
    /// computed (avoiding compounding rounding).
    pub fn ll(&self) -> f64 {
        ratio(self.pending_cycles, self.l2_misses)
    }

    /// LLC hit ratio among L2 misses.
    pub fn llc_hit_ratio(&self) -> f64 {
        ratio(self.llc_hits, self.l2_misses)
    }

    /// Fraction of cycles stalled on dependent-load chains, in `[0, 1]`.
    /// High values mark latency-bound pointer chasers (mcf, the graph
    /// engines) whose slowdown under interference tracks added latency
    /// rather than lost bandwidth.
    pub fn dep_stall_fraction(&self) -> f64 {
        ratio(self.dep_stall_cycles, self.cycles)
    }

    /// Fraction of cycles stalled on MSHR capacity (the MLP limit), in
    /// `[0, 1]`. High values mark bandwidth-bound streamers whose
    /// degradation tracks the co-runner's traffic.
    pub fn mlp_stall_fraction(&self) -> f64 {
        ratio(self.mlp_stall_cycles, self.cycles)
    }

    /// Prefetch-touched demand accesses per prefetch issued to memory.
    /// Not bounded by 1: see [`CoreCounters::prefetch_useful`].
    pub fn prefetch_accuracy(&self) -> f64 {
        ratio(self.prefetch_useful, self.prefetch_issued)
    }

    /// Accumulates another counter set into this one. `cycles` is summed
    /// (aggregate CPI over an app's cores uses summed cycles and summed
    /// instructions, like VTune's per-process rollup).
    pub fn merge(&mut self, other: &CoreCounters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.inflight_merges += other.inflight_merges;
        self.pending_cycles += other.pending_cycles;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_useful += other.prefetch_useful;
        self.prefetch_late += other.prefetch_late;
        self.prefetch_throttled += other.prefetch_throttled;
        self.dep_stall_cycles += other.dep_stall_cycles;
        self.mlp_stall_cycles += other.mlp_stall_cycles;
        self.idle_cycles += other.idle_cycles;
        for theirs in &other.pc_stats {
            match self.pc_stats.binary_search_by_key(&theirs.pc, |p| p.pc) {
                Ok(i) => {
                    let mine = &mut self.pc_stats[i];
                    mine.accesses += theirs.accesses;
                    mine.l2_misses += theirs.l2_misses;
                    mine.pending_cycles += theirs.pending_cycles;
                }
                Err(i) => self.pc_stats.insert(i, theirs.clone()),
            }
        }
    }

    /// Access sites ranked by pending cycles (the paper's "contentious
    /// code region" ranking), most expensive first.
    pub fn hotspots(&self) -> Vec<&PcCounters> {
        let mut v: Vec<&PcCounters> = self.pc_stats.iter().collect();
        v.sort_by_key(|p| std::cmp::Reverse(p.pending_cycles));
        v
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreCounters {
        CoreCounters {
            instructions: 1000,
            cycles: 2500,
            loads: 300,
            stores: 100,
            l1_hits: 350,
            l2_hits: 30,
            l2_misses: 20,
            llc_hits: 12,
            llc_misses: 8,
            pending_cycles: 1500,
            ..Default::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let c = sample();
        assert!((c.cpi() - 2.5).abs() < 1e-12);
        assert!((c.llc_mpki() - 8.0).abs() < 1e-12);
        assert!((c.l2_pcp() - 0.6).abs() < 1e-12);
        // LL = pending / l2_misses = 1500 / 20 = 75.
        assert!((c.ll() - 75.0).abs() < 1e-12);
        assert_eq!(c.l1_misses(), 50);
    }

    #[test]
    fn ll_matches_paper_formula() {
        let c = sample();
        // CPI * L2_PCP / (l2 misses per instr)
        let paper = c.cpi() * c.l2_pcp() / (c.l2_misses as f64 / c.instructions as f64);
        assert!((c.ll() - paper).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let c = CoreCounters::default();
        assert_eq!(c.cpi(), 0.0);
        assert_eq!(c.llc_mpki(), 0.0);
        assert_eq!(c.l2_pcp(), 0.0);
        assert_eq!(c.ll(), 0.0);
        assert_eq!(c.prefetch_accuracy(), 0.0);
        assert_eq!(c.dep_stall_fraction(), 0.0);
        assert_eq!(c.mlp_stall_fraction(), 0.0);
    }

    #[test]
    fn stall_fractions_are_cycle_ratios() {
        let c = CoreCounters {
            cycles: 1000,
            dep_stall_cycles: 250,
            mlp_stall_cycles: 100,
            ..Default::default()
        };
        assert!((c.dep_stall_fraction() - 0.25).abs() < 1e-12);
        assert!((c.mlp_stall_fraction() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.instructions, 2000);
        assert_eq!(a.cycles, 5000);
        assert_eq!(a.llc_misses, 16);
        // Ratios are preserved when merging identical counters.
        assert!((a.cpi() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_counts_are_consistent() {
        let c = sample();
        assert_eq!(c.l1_misses(), c.l2_hits + c.l2_misses);
        assert_eq!(c.l2_misses, c.llc_hits + c.llc_misses + c.inflight_merges);
    }
}

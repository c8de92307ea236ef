//! The event-driven multicore engine.
//!
//! Each simulated core consumes one [`SlotStream`] and keeps a private
//! clock. Private work (compute, L1 hits, L2 lookups) runs in batches; any
//! access that must touch the *shared* levels (LLC, memory controller)
//! pauses the core, which re-enters a min-heap keyed by its clock so that
//! shared-state mutations happen in global time order across cores.
//!
//! Cores are out-of-order-lite: demand misses are non-blocking up to
//! `mlp` outstanding (MSHR model); dependent loads wait for their producer
//! (`last_load_completion`); stores retire through a write buffer. This is
//! the minimal model that reproduces the paper's key asymmetry — regular
//! prefetch-friendly workloads are bandwidth-bound and latency-tolerant,
//! while irregular/dependent workloads are latency-bound and suffer
//! disproportionately under queueing delay.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use cochar_trace::{BufEntry, LoopingStream, Slot, SlotBuf, SlotStream, StreamFactory, StreamParams};
use serde::{Deserialize, Serialize};

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::counters::{CoreCounters, PcCounters};
use crate::fastmap::FastMap;
use crate::memctrl::{EpochTraffic, MemoryController};
use crate::prefetch::{AccessObservation, Msr, PrefetchReq, PrefetchUnit};
use crate::LINE_BYTES;

/// Private-batch length in cycles: bounds how far a core may run ahead of
/// global time between shared-state events.
const QUANTUM: u64 = 20_000;

/// Role of an application in a run (Sec. V of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Runs to completion; its execution time is the measurement.
    Foreground,
    /// Restarted in a loop until every foreground application finishes.
    Background,
}

/// One application in a run: a stream factory plus its placement.
pub struct AppSpec {
    /// Display name (used in results).
    pub name: String,
    /// Per-thread stream builder.
    pub factory: Arc<dyn StreamFactory>,
    /// Number of threads; each is pinned to its own core.
    pub threads: usize,
    /// Foreground or background.
    pub role: Role,
    /// Base of this instance's private address region.
    pub base: u64,
    /// Seed forwarded to the factory (trials vary it).
    pub seed: u64,
}

/// Measured results for one application of a run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AppResult {
    /// Application name (copied from the spec).
    pub name: String,
    /// Role the application ran with.
    pub role: Role,
    /// Threads (= cores) the application used.
    pub threads: usize,
    /// Foreground: cycles until its last thread finished. Background: the
    /// run horizon.
    pub elapsed_cycles: u64,
    /// Counters aggregated over the app's cores.
    pub counters: CoreCounters,
    /// Per-core counters (thread order).
    pub per_core: Vec<CoreCounters>,
    /// Completed restarts of a background app (0 for foreground).
    pub bg_iterations: u64,
    /// Bytes read from memory on behalf of this app (incl. prefetch).
    pub read_bytes: u64,
    /// Bytes written back on behalf of this app.
    pub write_bytes: u64,
}

impl AppResult {
    /// Average memory bandwidth over the app's elapsed time, in GB/s.
    pub fn bandwidth_gbs(&self, freq_ghz: f64) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        let secs = self.elapsed_cycles as f64 / (freq_ghz * 1e9);
        (self.read_bytes + self.write_bytes) as f64 / 1e9 / secs
    }
}

/// Complete results of one run.
///
/// Derives `PartialEq` so a store round-trip can be checked for
/// bit-identity against a fresh simulation (the resume-correctness
/// invariant of `cochar-store`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Per-application results, in spec order.
    pub apps: Vec<AppResult>,
    /// Cycle at which the last foreground application finished (or the
    /// truncation/stall point).
    pub horizon: u64,
    /// The run hit `max_cycles` before the foreground finished.
    pub truncated: bool,
    /// The forward-progress watchdog fired: no application retired an
    /// instruction for `stall_cycles` cycles. A stalled run is a poisoned
    /// measurement, not a slow one — consumers must surface it, never
    /// average it.
    pub stalled: bool,
    /// Per-epoch memory traffic (pcm-memory analogue).
    pub epochs: Vec<EpochTraffic>,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// Clock frequency, for bandwidth conversions.
    pub freq_ghz: f64,
}

impl RunOutcome {
    /// Result of the app with the given name.
    pub fn app(&self, name: &str) -> Option<&AppResult> {
        self.apps.iter().find(|a| a.name == name)
    }

    /// Machine-total average bandwidth over the horizon, in GB/s.
    pub fn total_bandwidth_gbs(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        let bytes: u64 = self.apps.iter().map(|a| a.read_bytes + a.write_bytes).sum();
        let secs = self.horizon as f64 / (self.freq_ghz * 1e9);
        bytes as f64 / 1e9 / secs
    }

    /// GB/s time series for one app (one point per epoch).
    pub fn bandwidth_series(&self, app: usize) -> Vec<f64> {
        let secs_per_epoch = self.epoch_cycles as f64 / (self.freq_ghz * 1e9);
        self.epochs
            .iter()
            .map(|e| e.app_bytes(app) as f64 / 1e9 / secs_per_epoch)
            .collect()
    }
}

/// The simulated machine: configuration plus prefetcher MSR state.
pub struct Machine {
    cfg: MachineConfig,
    msr: Msr,
}

impl Machine {
    /// Builds a machine; panics on an invalid configuration (a
    /// configuration is a design-time constant, not runtime input).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine config");
        Machine { cfg, msr: Msr::all_on() }
    }

    /// Sets the prefetcher MSR for subsequent runs.
    pub fn with_msr(mut self, msr: Msr) -> Self {
        self.msr = msr;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current prefetcher MSR value.
    pub fn msr(&self) -> Msr {
        self.msr
    }

    /// Runs the given applications to foreground completion.
    ///
    /// # Panics
    /// Panics if the placement is infeasible (more threads than cores, no
    /// foreground app, zero threads).
    pub fn run(&self, apps: &[AppSpec]) -> RunOutcome {
        let total_threads: usize = apps.iter().map(|a| a.threads).sum();
        assert!(total_threads > 0, "no threads to run");
        assert!(
            total_threads <= self.cfg.cores,
            "placement needs {total_threads} cores, machine has {}",
            self.cfg.cores
        );
        assert!(
            apps.iter().any(|a| a.role == Role::Foreground),
            "at least one foreground app required"
        );
        Engine::new(&self.cfg, self.msr, apps).run()
    }
}

// ---------------------------------------------------------------------------
// Internal engine
// ---------------------------------------------------------------------------

enum CoreStream {
    Finite(Box<dyn SlotStream>),
    Looping(LoopingStream),
}

impl CoreStream {
    /// Batched generation: one virtual call refills the core's buffer
    /// with up to [`cochar_trace::FILL_BATCH`] source slots.
    #[inline]
    fn fill(&mut self, buf: &mut SlotBuf) -> usize {
        match self {
            CoreStream::Finite(s) => s.fill(buf),
            CoreStream::Looping(s) => s.fill(buf),
        }
    }

    fn iterations(&self) -> u64 {
        match self {
            CoreStream::Finite(_) => 0,
            CoreStream::Looping(s) => s.iterations(),
        }
    }
}

struct PrivCache {
    l1: Cache,
    l2: Cache,
    pf: PrefetchUnit,
}

#[derive(Clone, Copy)]
struct PendingMem {
    line: u64,
    is_store: bool,
    pc: u32,
}

struct CoreState {
    app: usize,
    stream: CoreStream,
    time: u64,
    outstanding: Vec<u64>,
    last_load_completion: u64,
    watermark: u64,
    ctr: CoreCounters,
    pending: Option<PendingMem>,
    finished: bool,
    /// Dense per-pc counters (compacted into `ctr.pc_stats` at run end).
    pc_table: Vec<PcCounters>,
    /// Generation buffer: `advance` consumes it and refills it from
    /// `stream`.
    buf: SlotBuf,
    /// Next unconsumed entry in `buf`.
    buf_pos: usize,
}

impl CoreState {
    #[inline]
    fn prune_outstanding(&mut self) {
        let t = self.time;
        self.outstanding.retain(|&c| c > t);
    }

    #[inline]
    fn pc_stat(&mut self, pc: u32) -> &mut PcCounters {
        let idx = pc as usize;
        debug_assert!(idx < 4096, "pc {pc} out of the expected site-id range");
        if idx >= self.pc_table.len() {
            self.pc_table.resize_with(idx + 1, PcCounters::default);
        }
        let e = &mut self.pc_table[idx];
        e.pc = pc;
        e
    }

    fn compact_pc_stats(&mut self) {
        self.ctr.pc_stats = self
            .pc_table
            .drain(..)
            .filter(|p| p.accesses > 0)
            .collect();
    }
}

enum AdvanceResult {
    Paused,
    QuantumExpired,
    Finished,
}

struct Engine<'a> {
    cfg: &'a MachineConfig,
    cores: Vec<CoreState>,
    privs: Vec<PrivCache>,
    llc: Cache,
    mem: MemoryController,
    /// In-flight lines (`line -> fill completion cycle`), probed up to
    /// three times per shared access. Reads filter on `completion > now`,
    /// so only values are observable, never iteration order.
    inflight: FastMap,
    pf_buf: Vec<PrefetchReq>,
    app_names: Vec<String>,
    app_roles: Vec<Role>,
    app_threads: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a MachineConfig, msr: Msr, apps: &[AppSpec]) -> Self {
        let mut cores = Vec::new();
        let mut privs = Vec::new();
        for (ai, app) in apps.iter().enumerate() {
            assert!(app.threads > 0, "app {} has zero threads", app.name);
            for t in 0..app.threads {
                let params = StreamParams {
                    thread: t,
                    threads: app.threads,
                    base: app.base,
                    seed: app.seed,
                };
                let stream = match app.role {
                    Role::Foreground => CoreStream::Finite(app.factory.build(&params)),
                    Role::Background => {
                        CoreStream::Looping(LoopingStream::new(app.factory.clone(), params))
                    }
                };
                cores.push(CoreState {
                    app: ai,
                    stream,
                    time: 0,
                    outstanding: Vec::with_capacity(cfg.mlp as usize + 1),
                    last_load_completion: 0,
                    watermark: 0,
                    ctr: CoreCounters::default(),
                    pending: None,
                    finished: false,
                    pc_table: Vec::new(),
                    buf: SlotBuf::new(),
                    buf_pos: 0,
                });
                privs.push(PrivCache {
                    l1: Cache::new(&cfg.l1d),
                    l2: Cache::new(&cfg.l2),
                    pf: PrefetchUnit::new(msr),
                });
            }
        }
        Engine {
            cfg,
            cores,
            privs,
            llc: Cache::new(&cfg.llc),
            mem: MemoryController::with_channels(
                cfg.line_service_millicycles,
                cfg.dram_latency,
                cfg.epoch_cycles,
                apps.len(),
                cfg.channels,
            ),
            inflight: FastMap::new(),
            pf_buf: Vec::with_capacity(16),
            app_names: apps.iter().map(|a| a.name.clone()).collect(),
            app_roles: apps.iter().map(|a| a.role).collect(),
            app_threads: apps.iter().map(|a| a.threads).collect(),
        }
    }

    fn run(mut self) -> RunOutcome {
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for i in 0..self.cores.len() {
            heap.push(Reverse((0, i)));
        }
        let napps = self.app_names.len();
        let mut fg_cores_left = self
            .cores
            .iter()
            .filter(|c| self.app_roles[c.app] == Role::Foreground)
            .count();
        let mut app_finish = vec![0u64; napps];
        let mut truncated = false;
        let mut stalled = false;
        let mut horizon = 0u64;
        // Forward-progress watchdog: global time of the last observed
        // instruction retirement, against the configured stall window.
        let mut last_retired: u64 = 0;
        let mut retired_at: u64 = 0;
        // Running total of retired instructions over all cores: `advance`
        // on core `i` is the only place instruction counters move, so
        // adding each call's delta keeps this equal to the per-core sum
        // without an O(cores) walk per event.
        let mut retired_total: u64 = 0;
        // The core holding the current turn. `None` means take the next
        // one from the heap.
        let mut next: Option<(u64, usize)> = None;

        loop {
            let (t, i) = match next.take() {
                Some(turn) => turn,
                None => match heap.pop() {
                    Some(Reverse(turn)) => turn,
                    None => break,
                },
            };
            if fg_cores_left == 0 {
                break;
            }
            if t > self.cfg.max_cycles {
                truncated = true;
                horizon = t;
                break;
            }
            if retired_total > last_retired {
                last_retired = retired_total;
                retired_at = t;
            } else if self.cfg.stall_cycles > 0
                && t.saturating_sub(retired_at) > self.cfg.stall_cycles
            {
                stalled = true;
                horizon = t;
                break;
            }
            if self.cores[i].finished {
                continue;
            }
            if let Some(pm) = self.cores[i].pending.take() {
                let _t = crate::stats::PhaseTimer::start(&crate::stats::SHARED_NS);
                self.shared_access(i, pm);
            }
            let insns_before = self.cores[i].ctr.instructions;
            let result = {
                let _t = crate::stats::PhaseTimer::start(&crate::stats::ADVANCE_NS);
                self.advance(i)
            };
            retired_total += self.cores[i].ctr.instructions - insns_before;
            match result {
                AdvanceResult::Paused | AdvanceResult::QuantumExpired => {
                    let nt = self.cores[i].time;
                    // Stay-on-core fast path: if this core is still ahead
                    // of every queued turn it would be popped right back,
                    // so skip the push+pop round trip. The `(time, index)`
                    // keys are totally ordered (a core is never queued
                    // twice), making this bit-identical to going through
                    // the heap; the watchdog/truncation prologue above
                    // still runs for the retaken turn.
                    let stays = heap.peek().is_none_or(|&Reverse(top)| (nt, i) < top);
                    if stays {
                        next = Some((nt, i));
                    } else {
                        heap.push(Reverse((nt, i)));
                    }
                }
                AdvanceResult::Finished => {
                    let core = &self.cores[i];
                    let (app, time) = (core.app, core.time);
                    if self.app_roles[app] == Role::Foreground {
                        fg_cores_left -= 1;
                        app_finish[app] = app_finish[app].max(time);
                        if fg_cores_left == 0 {
                            horizon = app_finish
                                .iter()
                                .zip(&self.app_roles)
                                .filter(|(_, r)| **r == Role::Foreground)
                                .map(|(f, _)| *f)
                                .max()
                                .unwrap_or(time);
                        }
                    }
                }
            }
        }

        // Finalize per-core cycle counters and per-pc breakdowns.
        for core in &mut self.cores {
            core.ctr.cycles = core.time.max(1);
            core.compact_pc_stats();
        }

        let mut apps = Vec::with_capacity(napps);
        #[allow(clippy::needless_range_loop)] // indexes three parallel per-app vectors
        for ai in 0..napps {
            let mut agg = CoreCounters::default();
            let mut per_core = Vec::new();
            let mut bg_iterations = 0;
            let mut unfinished = false;
            for core in self.cores.iter().filter(|c| c.app == ai) {
                agg.merge(&core.ctr);
                per_core.push(core.ctr.clone());
                bg_iterations += core.stream.iterations();
                unfinished |= !core.finished;
            }
            // A foreground cut off by truncation or a stall reports the
            // horizon — the time it demonstrably ran without finishing —
            // not the finish time of whichever cores happened to complete.
            let elapsed = match self.app_roles[ai] {
                Role::Foreground if unfinished => horizon.max(app_finish[ai]).max(1),
                Role::Foreground => app_finish[ai].max(1),
                Role::Background => horizon.max(1),
            };
            let read_bytes: u64 = self.mem.epochs().iter().map(|e| e.read_bytes[ai]).sum();
            let write_bytes: u64 = self.mem.epochs().iter().map(|e| e.write_bytes[ai]).sum();
            apps.push(AppResult {
                name: self.app_names[ai].clone(),
                role: self.app_roles[ai],
                threads: self.app_threads[ai],
                elapsed_cycles: elapsed,
                counters: agg,
                per_core,
                bg_iterations,
                read_bytes,
                write_bytes,
            });
        }

        RunOutcome {
            apps,
            horizon: horizon.max(1),
            truncated,
            stalled,
            epochs: self.mem.epochs().to_vec(),
            epoch_cycles: self.mem.epoch_cycles(),
            freq_ghz: self.cfg.freq_ghz,
        }
    }

    /// Runs private work on core `i` until it needs the shared levels, its
    /// quantum expires, or its stream ends.
    ///
    /// Slots come from the core's generation buffer, refilled with one
    /// virtual `fill()` per [`cochar_trace::FILL_BATCH`] source slots;
    /// counter deltas accumulate in locals that flush to `CoreCounters`
    /// once per exit. The result is the same as consuming the stream one
    /// `next_slot` at a time, because:
    ///
    /// * the buffer expands to exactly the slot sequence `next_slot`
    ///   would yield (`fill` contract, proptested in `cochar-trace`), and
    ///   refills happen only on a fully consumed buffer, which is what
    ///   lets `LoopingStream` count restarts at the same consumption
    ///   points as a per-slot pull;
    /// * a [`BufEntry::ComputeRun`] is consumed with per-unit atomicity:
    ///   the closed form retires `min(count, ceil((deadline - time) /
    ///   unit))` units, exactly where a per-slot deadline check would
    ///   stop — including the final unit's overshoot past the deadline,
    ///   which fixes pause/requeue times (and therefore co-run
    ///   interleavings, truncation and stall horizons);
    /// * every exit path flushes the local time/counter deltas before
    ///   anything else can observe the core.
    fn advance(&mut self, i: usize) -> AdvanceResult {
        let core = &mut self.cores[i];
        let privs = &mut self.privs[i];
        let deadline = core.time + QUANTUM;
        // Livelock guard: a stream that keeps yielding zero-cost slots
        // (`Compute(0)`) advances neither time nor the quantum check, so
        // the loop below would never exit. Past this bound the core burns
        // the rest of its quantum as idle time instead — time then
        // progresses without retirement and the engine-level stall
        // watchdog classifies the run. Real generators emit `Compute(0)`
        // only interleaved with memory accesses, never in long runs.
        // `Compute(0)` slots are never coalesced into a `ComputeRun`, so
        // the count advances slot for slot.
        const ZERO_PROGRESS_SLOTS: u32 = 4096;
        let mut zero_slots: u32 = 0;
        let mut time = core.time;
        let mut last_load = core.last_load_completion;
        let mut d_instr = 0u64;
        let mut d_loads = 0u64;
        let mut d_stores = 0u64;
        let mut d_l1_hits = 0u64;
        let mut d_pf_useful = 0u64;
        let mut d_dep_stall = 0u64;
        macro_rules! flush {
            () => {{
                core.time = time;
                core.last_load_completion = last_load;
                core.ctr.instructions += d_instr;
                core.ctr.loads += d_loads;
                core.ctr.stores += d_stores;
                core.ctr.l1_hits += d_l1_hits;
                core.ctr.prefetch_useful += d_pf_useful;
                core.ctr.dep_stall_cycles += d_dep_stall;
            }};
        }
        loop {
            if time >= deadline {
                flush!();
                return AdvanceResult::QuantumExpired;
            }
            if zero_slots >= ZERO_PROGRESS_SLOTS {
                // Attribute the skipped span: these cycles elapse without
                // retirement and must not vanish from the accounting.
                core.ctr.idle_cycles += deadline - time;
                time = deadline;
                flush!();
                return AdvanceResult::QuantumExpired;
            }
            let entry = match core.buf.entry(core.buf_pos) {
                Some(e) => e,
                None => {
                    core.buf.clear();
                    core.buf_pos = 0;
                    let pulled = {
                        let _t = crate::stats::PhaseTimer::start(&crate::stats::REFILL_NS);
                        core.stream.fill(&mut core.buf)
                    };
                    if pulled == 0 {
                        flush!();
                        let drain = core.outstanding.iter().copied().max().unwrap_or(0);
                        core.time = core.time.max(drain).max(1);
                        core.outstanding.clear();
                        core.finished = true;
                        return AdvanceResult::Finished;
                    }
                    continue;
                }
            };
            match entry {
                BufEntry::ComputeRun { unit, count } => {
                    // time < deadline and unit >= 1 here: the per-slot
                    // loop would retire units until the first one whose
                    // start crosses the deadline.
                    let u = u64::from(unit);
                    let m = (deadline - time).div_ceil(u).min(u64::from(count));
                    time += m * u;
                    d_instr += m * u;
                    zero_slots = 0;
                    if m == u64::from(count) {
                        core.buf_pos += 1;
                    } else {
                        core.buf.set_entry(
                            core.buf_pos,
                            BufEntry::ComputeRun { unit, count: count - m as u32 },
                        );
                    }
                }
                BufEntry::One(Slot::Compute(n)) => {
                    core.buf_pos += 1;
                    time += u64::from(n);
                    d_instr += u64::from(n);
                    if n == 0 {
                        zero_slots += 1;
                    } else {
                        zero_slots = 0;
                    }
                }
                BufEntry::One(Slot::Load { addr, pc, dep }) => {
                    core.buf_pos += 1;
                    zero_slots = 0;
                    d_instr += 1;
                    d_loads += 1;
                    if dep && last_load > time {
                        d_dep_stall += last_load - time;
                        time = last_load;
                    }
                    let line = addr / LINE_BYTES;
                    if let Some(hit) = privs.l1.access(line) {
                        d_l1_hits += 1;
                        core.pc_stat(pc).accesses += 1;
                        if hit.was_prefetched {
                            d_pf_useful += 1;
                        }
                        last_load = time + u64::from(self.cfg.l1d.latency);
                        time += 1;
                    } else {
                        flush!();
                        Self::resolve_mshr(core, self.cfg.mlp);
                        core.pending = Some(PendingMem { line, is_store: false, pc });
                        return AdvanceResult::Paused;
                    }
                }
                BufEntry::One(Slot::Store { addr, pc }) => {
                    core.buf_pos += 1;
                    zero_slots = 0;
                    d_instr += 1;
                    d_stores += 1;
                    let line = addr / LINE_BYTES;
                    if privs.l1.access(line).is_some() {
                        d_l1_hits += 1;
                        core.pc_stat(pc).accesses += 1;
                        privs.l1.mark_dirty(line);
                        time += 1;
                    } else {
                        flush!();
                        Self::resolve_mshr(core, self.cfg.mlp);
                        core.pending = Some(PendingMem { line, is_store: true, pc });
                        return AdvanceResult::Paused;
                    }
                }
            }
        }
    }

    /// Applies MSHR capacity: if all `mlp` slots are busy, the core stalls
    /// until the earliest outstanding miss completes.
    ///
    /// One prune (before the capacity check) suffices. Entries the stall
    /// leaves stale (completion <= the advanced time) are unobservable:
    /// the next capacity check re-prunes before counting, and the
    /// stream-end drain takes `max(outstanding)`, which a stale entry at
    /// or below `time` can never raise.
    fn resolve_mshr(core: &mut CoreState, mlp: u32) {
        core.prune_outstanding();
        if core.outstanding.len() >= mlp as usize {
            // `mlp >= 1` (enforced by `MachineConfig::validate`) makes
            // `outstanding` non-empty inside this branch, but a resumable
            // sweep must never lose a campaign to one poisoned cell: an
            // empty MSHR set degrades to "no stall" instead of panicking.
            let Some(earliest) = core.outstanding.iter().copied().min() else {
                debug_assert!(mlp == 0, "empty MSHR set despite mlp >= 1 invariant");
                return;
            };
            if earliest > core.time {
                core.ctr.mlp_stall_cycles += earliest - core.time;
                core.time = earliest;
            }
        }
    }

    /// Executes a paused access (known L1 miss) against L2/LLC/memory at
    /// the core's current time, then trains the prefetchers.
    fn shared_access(&mut self, i: usize, pm: PendingMem) {
        let now = self.cores[i].time;
        let app = self.cores[i].app;
        let line = pm.line;
        self.cores[i].pc_stat(pm.pc).accesses += 1;

        // --- L2 (private) ---
        let l2_hit = self.privs[i].l2.access(line);
        let completion;
        if let Some(hit) = l2_hit {
            if hit.was_prefetched {
                self.cores[i].ctr.prefetch_useful += 1;
            }
            let base = now + u64::from(self.cfg.l2.latency);
            // Prefetches install their line at issue time, but the data
            // only arrives at the controller's grant completion: a demand
            // that catches up with its prefetch waits the difference —
            // and counts as an L2 miss merged into the MSHR (hardware
            // fill-buffer-hit accounting), which is what paces a
            // prefetch-covered stream at the controller's (possibly
            // contended) service rate.
            completion = match self.inflight.get(line).filter(|&c| c > base) {
                Some(c) => {
                    let core = &mut self.cores[i];
                    core.ctr.l2_misses += 1;
                    core.ctr.inflight_merges += 1;
                    core.ctr.prefetch_late += 1;
                    core.pc_stat(pm.pc).l2_misses += 1;
                    let start = now.max(core.watermark);
                    if c > start {
                        core.ctr.pending_cycles += c - start;
                        core.pc_stat(pm.pc).pending_cycles += c - start;
                        core.watermark = c;
                    }
                    c
                }
                None => {
                    self.cores[i].ctr.l2_hits += 1;
                    base
                }
            };
        } else {
            self.cores[i].ctr.l2_misses += 1;
            // --- LLC (shared) ---
            // Owned access: a hit is followed by private fills on core
            // `i`, so record `i` in the line's owner mask for the
            // back-invalidation filter (see `insert_llc`).
            let llc_hit = self.llc.access_owned(line, i);
            let inflight_c = self.inflight.get(line).filter(|&c| c > now);
            completion = match (llc_hit, inflight_c) {
                (_, Some(c)) => {
                    // Merged with an in-flight fill (late prefetch or a
                    // sibling thread's miss).
                    self.cores[i].ctr.inflight_merges += 1;
                    self.cores[i].ctr.prefetch_late += 1;
                    if llc_hit.is_none() {
                        // Evicted before arrival: re-install.
                        self.insert_llc(line, false, false, now, app, i);
                    }
                    c.max(now + u64::from(self.cfg.llc.latency))
                }
                (Some(hit), None) => {
                    self.cores[i].ctr.llc_hits += 1;
                    if hit.was_prefetched {
                        self.cores[i].ctr.prefetch_useful += 1;
                    }
                    now + u64::from(self.cfg.llc.latency)
                }
                (None, None) => {
                    self.cores[i].ctr.llc_misses += 1;
                    let grant = self.mem.request_read_line(now, app, line);
                    self.inflight.insert(line, grant.completion);
                    self.insert_llc(line, false, false, now, app, i);
                    grant.completion
                }
            };
            // Pending-cycle union accounting (load L2 misses only: stores
            // retire through the write buffer and nothing waits on them,
            // matching VTune's load-pending semantics).
            let core = &mut self.cores[i];
            core.pc_stat(pm.pc).l2_misses += 1;
            if !pm.is_store {
                let start = now.max(core.watermark);
                if completion > start {
                    core.ctr.pending_cycles += completion - start;
                    core.pc_stat(pm.pc).pending_cycles += completion - start;
                    core.watermark = completion;
                }
            }
            // Fill the private L2.
            self.fill_l2(i, line, false, now, app);
        }

        // Fill L1 (write-allocate: stores install dirty).
        self.fill_l1(i, line, pm.is_store, false, now, app);

        let core = &mut self.cores[i];
        core.outstanding.push(completion);
        if !pm.is_store {
            core.last_load_completion = completion;
        }
        core.time += 1;

        // --- Prefetcher training ---
        // `privs` and `pf_buf` are disjoint fields, so the buffer is
        // filled in place — no Vec swap in and out of `self` per access.
        let obs = AccessObservation { pc: pm.pc, line, l1_hit: false, l2_hit: l2_hit.is_some() };
        let _pf_t = crate::stats::PhaseTimer::start(&crate::stats::PF_NS);
        self.pf_buf.clear();
        self.privs[i].pf.observe(&obs, &mut self.pf_buf);
        for k in 0..self.pf_buf.len() {
            let req = self.pf_buf[k];
            self.issue_prefetch(i, req, now, app);
        }
        drop(_pf_t);

        // Bound the in-flight map. The bound is a pure locality knob:
        // reads filter on `completion > now`, so dead entries are never
        // observable and pruning earlier or later cannot change outcomes.
        // 2048 live entries keep the open-addressing table within 64 KiB —
        // resident in a host L2 — instead of letting it grow to 512 KiB of
        // randomly-probed cold memory.
        if self.inflight.len() >= 2_048 {
            self.inflight.retain(|_, c| c > now);
        }
    }

    /// Installs a line into the LLC, handling write-backs and inclusive
    /// back-invalidation of the victim. `core` is the core whose private
    /// caches the caller fills with `line` next; it is recorded in the LLC
    /// entry's owner mask.
    ///
    /// The victim sweep only visits cores in the victim's owner mask.
    /// That is exact, not heuristic: a private cache acquires a line only
    /// through `fill_l1`/`fill_l2`, every such fill happens while the line
    /// is resident in the (inclusive) LLC, and every path to a fill marks
    /// the filling core in that residency's mask — demand LLC misses and
    /// prefetch installs seed it via `insert_owned`, LLC hits OR it via
    /// `access_owned`/`probe_owned`, and private-hit paths (L2 hit,
    /// prefetch L2 probe) imply the bit was already set when the L2 copy
    /// was filled (an LLC eviction in between would have invalidated that
    /// copy). A core outside the mask therefore cannot hold the victim.
    fn insert_llc(&mut self, line: u64, dirty: bool, prefetched: bool, now: u64, app: usize, core: usize) {
        if let Some(ev) = self.llc.insert_owned(line, dirty, prefetched, core) {
            let mut writeback = ev.dirty;
            if self.cfg.llc_inclusive {
                let _t = crate::stats::PhaseTimer::start(&crate::stats::INVAL_NS);
                for (ci, p) in self.privs.iter_mut().enumerate() {
                    if ev.owners & crate::cache::owner_bit(ci) == 0 {
                        continue;
                    }
                    if p.l1.invalidate(ev.line) == Some(true) {
                        writeback = true;
                    }
                    if p.l2.invalidate(ev.line) == Some(true) {
                        writeback = true;
                    }
                }
            }
            if writeback {
                self.mem.request_write_line(now, app, ev.line);
            }
        }
    }

    fn fill_l2(&mut self, i: usize, line: u64, prefetched: bool, now: u64, app: usize) {
        if let Some(ev) = self.privs[i].l2.insert(line, false, prefetched) {
            if ev.dirty {
                if self.llc.contains(ev.line) {
                    self.llc.mark_dirty(ev.line);
                } else {
                    self.mem.request_write_line(now, app, ev.line);
                }
            }
        }
    }

    fn fill_l1(&mut self, i: usize, line: u64, dirty: bool, prefetched: bool, now: u64, app: usize) {
        if let Some(ev) = self.privs[i].l1.insert(line, dirty, prefetched) {
            if ev.dirty {
                if self.privs[i].l2.contains(ev.line) {
                    self.privs[i].l2.mark_dirty(ev.line);
                } else if self.llc.contains(ev.line) {
                    self.llc.mark_dirty(ev.line);
                } else {
                    self.mem.request_write_line(now, app, ev.line);
                }
            }
        }
    }

    /// Turns a prefetch candidate into cache fills and (if needed) memory
    /// traffic.
    fn issue_prefetch(&mut self, i: usize, req: PrefetchReq, now: u64, app: usize) {
        let line = req.line;
        // Already on its way?
        if self.inflight.get(line).is_some_and(|c| c > now) {
            return;
        }
        // Already in a private level? (Miss probes leave a plan behind so
        // the fills below skip their insert scans.)
        if self.privs[i].l2.probe(line) {
            if req.into_l1 && !self.privs[i].l1.probe(line) {
                self.fill_l1(i, line, false, true, now, app);
            }
            return;
        }
        // Shared hit: pull into the private levels without memory traffic.
        if self.llc.probe_owned(line, i) {
            self.fill_l2(i, line, true, now, app);
            if req.into_l1 {
                self.fill_l1(i, line, false, true, now, app);
            }
            return;
        }
        // Needs memory: maybe throttle on queue depth.
        if self.cfg.prefetch_throttle_cycles > 0
            && self.mem.queue_delay(now) > self.cfg.prefetch_throttle_cycles
        {
            self.cores[i].ctr.prefetch_throttled += 1;
            return;
        }
        let grant = self.mem.request_read_line(now, app, line);
        self.inflight.insert(line, grant.completion);
        self.insert_llc(line, false, true, now, app, i);
        self.fill_l2(i, line, true, now, app);
        if req.into_l1 {
            self.fill_l1(i, line, false, true, now, app);
        }
        self.cores[i].ctr.prefetch_issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cochar_trace::gen::{ComputeStream, Seq, Triad};
    use cochar_trace::{Region, VecStream};

    fn tiny_machine() -> Machine {
        Machine::new(MachineConfig::tiny())
    }

    fn seq_factory(bytes: u64, compute: u32) -> Arc<dyn StreamFactory> {
        Arc::new(move |p: &StreamParams| {
            let mut r = Region::new(p.base, bytes + 128);
            let a = r.array(bytes / 8, 8);
            Box::new(Seq::full(a, compute, 0, 1)) as Box<dyn SlotStream>
        })
    }

    fn compute_factory(n: u64) -> Arc<dyn StreamFactory> {
        Arc::new(move |_: &StreamParams| {
            Box::new(ComputeStream::new(n, 1000)) as Box<dyn SlotStream>
        })
    }

    fn fg(name: &str, factory: Arc<dyn StreamFactory>, threads: usize, base: u64) -> AppSpec {
        AppSpec {
            name: name.into(),
            factory,
            threads,
            role: Role::Foreground,
            base,
            seed: 1,
        }
    }

    #[test]
    fn compute_only_run_has_cpi_one() {
        let m = tiny_machine();
        let out = m.run(&[fg("c", compute_factory(100_000), 1, 0)]);
        let app = &out.apps[0];
        assert!(!out.truncated);
        assert_eq!(app.counters.instructions, 100_000);
        let cpi = app.counters.cpi();
        assert!((cpi - 1.0).abs() < 0.01, "CPI {cpi}");
        assert_eq!(app.counters.llc_misses, 0);
        assert_eq!(app.read_bytes, 0);
    }

    #[test]
    fn sequential_sweep_fetches_each_line_once() {
        let m = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        // 64 KiB sweep = 1024 lines, footprint >> tiny LLC (16 KiB).
        let out = m.run(&[fg("seq", seq_factory(64 * 1024, 0), 1, 0)]);
        let app = &out.apps[0];
        let lines = app.read_bytes / LINE_BYTES;
        // Every line missed everywhere exactly once (no prefetch, no reuse).
        assert_eq!(lines, 1024);
        assert_eq!(app.counters.llc_misses, 1024);
        // 8 accesses per line: 7 L1 hits after each fill.
        assert_eq!(app.counters.loads, 8192);
        assert_eq!(app.counters.l1_hits, 8192 - 1024);
    }

    #[test]
    fn prefetch_speeds_up_sequential_sweep() {
        let bytes = 256 * 1024;
        let off = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        let on = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_on());
        let t_off = off.run(&[fg("s", seq_factory(bytes, 2), 1, 0)]).apps[0].elapsed_cycles;
        let t_on = on.run(&[fg("s", seq_factory(bytes, 2), 1, 0)]).apps[0].elapsed_cycles;
        assert!(
            t_on < t_off,
            "prefetching should speed up a sequential sweep: on={t_on} off={t_off}"
        );
        let speedup = t_off as f64 / t_on as f64;
        assert!(speedup > 1.1, "speedup {speedup}");
    }

    #[test]
    fn cache_resident_rerun_hits() {
        // Sweep a 2 KiB array twice: second pass must hit in L1/L2.
        let factory: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base, 4096);
            let a = r.array(256, 8);
            Box::new(cochar_trace::gen::Chain::new(vec![
                Box::new(Seq::full(a, 0, 0, 1)) as Box<dyn SlotStream>,
                Box::new(Seq::full(a, 0, 0, 1)) as Box<dyn SlotStream>,
            ])) as Box<dyn SlotStream>
        });
        let m = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        let out = m.run(&[fg("w", factory, 1, 0)]);
        let c = &out.apps[0].counters;
        // 32 lines: first pass misses everywhere; the 2 KiB array exceeds
        // the tiny 1 KiB L1 but fits the 4 KiB L2, so the second pass hits
        // in L2 instead of refetching from memory.
        assert_eq!(c.llc_misses, 32);
        assert_eq!(c.l2_hits, 32);
        assert_eq!(c.l1_hits, 512 - 64);
    }

    #[test]
    fn two_apps_share_bandwidth() {
        // Two bandwidth-bound sweeps co-running must each take longer than
        // solo, and the controller must be the reason.
        let bytes = 128 * 1024;
        let m = tiny_machine();
        let solo = m.run(&[fg("a", seq_factory(bytes, 0), 1, 0)]);
        let t_solo = solo.apps[0].elapsed_cycles;

        let pair = m.run(&[
            fg("a", seq_factory(bytes, 0), 1, 0),
            AppSpec {
                name: "b".into(),
                factory: seq_factory(bytes, 0),
                threads: 1,
                role: Role::Background,
                base: 1 << 30,
                seed: 2,
            },
        ]);
        let t_pair = pair.app("a").unwrap().elapsed_cycles;
        assert!(
            t_pair as f64 > t_solo as f64 * 1.08,
            "co-run should slow a bandwidth-bound app: solo={t_solo} pair={t_pair}"
        );
        assert!(pair.app("b").unwrap().bg_iterations > 0 || pair.app("b").unwrap().read_bytes > 0);
    }

    #[test]
    fn background_app_loops_until_fg_done() {
        let m = tiny_machine();
        let out = m.run(&[
            fg("fg", compute_factory(1_000_000), 1, 0),
            AppSpec {
                name: "bg".into(),
                factory: compute_factory(1000),
                threads: 1,
                role: Role::Background,
                base: 1 << 30,
                seed: 0,
            },
        ]);
        let bg = out.app("bg").unwrap();
        assert!(bg.bg_iterations > 100, "bg iterated {} times", bg.bg_iterations);
        assert_eq!(bg.elapsed_cycles, out.horizon);
    }

    #[test]
    fn dependent_chase_is_slower_than_independent_accesses() {
        use cochar_trace::gen::{PointerChase, RandomAccess};
        let mk = |dep: bool| -> Arc<dyn StreamFactory> {
            Arc::new(move |p: &StreamParams| {
                let mut r = Region::new(p.base, 1 << 20);
                let a = r.array(1 << 15, 8);
                if dep {
                    Box::new(PointerChase::new(a, 2000, 0, p.seed, 0)) as Box<dyn SlotStream>
                } else {
                    Box::new(RandomAccess::new(a, 2000, 0, 0, false, p.seed, 0))
                        as Box<dyn SlotStream>
                }
            })
        };
        let m = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        let t_dep = m.run(&[fg("d", mk(true), 1, 0)]).apps[0].elapsed_cycles;
        let t_ind = m.run(&[fg("i", mk(false), 1, 0)]).apps[0].elapsed_cycles;
        let ratio = t_dep as f64 / t_ind as f64;
        assert!(
            ratio > 2.0,
            "dependent chase should be much slower (MLP={}): ratio {ratio}",
            MachineConfig::tiny().mlp
        );
    }

    #[test]
    fn triad_saturates_bandwidth() {
        // A 4-thread triad on the paper machine must reach a significant
        // fraction of peak bandwidth.
        let cfg = MachineConfig::scaled();
        let peak = cfg.peak_bandwidth_gbs();
        let factory: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base + ((p.thread as u64) << 28), 4 << 20);
            let n = 64 * 1024;
            let a = r.array(n, 8);
            let b = r.array(n, 8);
            let c = r.array(n, 8);
            Box::new(Triad::new(a, b, c, 2)) as Box<dyn SlotStream>
        });
        let m = Machine::new(cfg.clone());
        let out = m.run(&[fg("triad", factory, 4, 0)]);
        let bw = out.apps[0].bandwidth_gbs(cfg.freq_ghz);
        assert!(
            bw > peak * 0.6,
            "4-thread triad should approach peak ({peak:.1} GB/s), got {bw:.1}"
        );
        assert!(bw <= peak * 1.05, "bandwidth {bw:.1} exceeds peak {peak:.1}");
    }

    #[test]
    fn max_cycles_truncates_runaway_runs() {
        let mut cfg = MachineConfig::tiny();
        cfg.max_cycles = 10_000;
        let m = Machine::new(cfg);
        let out = m.run(&[fg("long", compute_factory(100_000_000), 1, 0)]);
        assert!(out.truncated);
        assert!(!out.stalled);
        // The cut-off foreground reports the simulated horizon, not a
        // bogus 1-cycle "finish".
        assert!(out.apps[0].elapsed_cycles >= 10_000);
    }

    /// A stream that yields zero-cost slots forever: the pathological
    /// no-forward-progress workload the stall watchdog exists for.
    struct DeadSpin;
    impl SlotStream for DeadSpin {
        fn next_slot(&mut self) -> Option<Slot> {
            Some(Slot::Compute(0))
        }
    }

    #[test]
    fn watchdog_classifies_no_progress_run_as_stalled() {
        let mut cfg = MachineConfig::tiny();
        cfg.stall_cycles = 200_000;
        let m = Machine::new(cfg);
        let factory: Arc<dyn StreamFactory> =
            Arc::new(|_: &StreamParams| Box::new(DeadSpin) as Box<dyn SlotStream>);
        let out = m.run(&[fg("spin", factory, 1, 0)]);
        assert!(out.stalled, "watchdog must fire");
        assert!(!out.truncated, "stall is classified before the cycle cap");
        // Fired within the window (plus slack for quantum granularity),
        // nowhere near tiny's 100M-cycle cap.
        assert!(out.horizon < 2_000_000, "fired at {}", out.horizon);
        assert_eq!(out.apps[0].elapsed_cycles, out.horizon);
    }

    /// Cycle conservation for the livelock guard: every cycle the guard
    /// skips must land on `idle_cycles`, so a zero-progress core's elapsed
    /// time is fully attributed (the guard previously burned up to a
    /// quantum per trip without recording it anywhere).
    #[test]
    fn livelock_guard_attributes_skipped_cycles_as_idle() {
        let mut cfg = MachineConfig::tiny();
        cfg.stall_cycles = 200_000;
        let m = Machine::new(cfg);
        let factory: Arc<dyn StreamFactory> =
            Arc::new(|_: &StreamParams| Box::new(DeadSpin) as Box<dyn SlotStream>);
        let out = m.run(&[fg("spin", factory, 1, 0)]);
        let ctr = &out.apps[0].per_core[0];
        assert!(ctr.cycles > 0);
        assert_eq!(
            ctr.idle_cycles, ctr.cycles,
            "a pure zero-progress core must account every cycle as idle"
        );
    }

    /// The flip side: runs that make progress never touch the idle
    /// counter, so it stays a pure livelock-guard signal.
    #[test]
    fn progressing_runs_accrue_no_idle_cycles() {
        let out = tiny_machine().run(&[fg("seq", seq_factory(16 * 1024, 100), 1, 0)]);
        assert_eq!(out.apps[0].counters.idle_cycles, 0);
    }

    #[test]
    fn watchdog_disabled_spins_to_the_cycle_cap() {
        let mut cfg = MachineConfig::tiny();
        cfg.stall_cycles = 0;
        cfg.max_cycles = 1_000_000;
        let m = Machine::new(cfg);
        let factory: Arc<dyn StreamFactory> =
            Arc::new(|_: &StreamParams| Box::new(DeadSpin) as Box<dyn SlotStream>);
        let out = m.run(&[fg("spin", factory, 1, 0)]);
        assert!(out.truncated, "with the watchdog off only max_cycles stops the run");
        assert!(!out.stalled);
    }

    #[test]
    fn slow_but_progressing_run_is_not_stalled() {
        let mut cfg = MachineConfig::tiny();
        cfg.stall_cycles = 50_000; // tight window
        let m = Machine::new(cfg);
        let out = m.run(&[fg("seq", seq_factory(64 * 1024, 200), 1, 0)]);
        assert!(!out.stalled);
        assert!(!out.truncated);
    }

    #[test]
    #[should_panic(expected = "placement")]
    fn overcommitted_placement_panics() {
        let m = tiny_machine(); // 2 cores
        let _ = m.run(&[fg("a", compute_factory(10), 3, 0)]);
    }

    #[test]
    #[should_panic(expected = "foreground")]
    fn background_only_run_panics() {
        let m = tiny_machine();
        let _ = m.run(&[AppSpec {
            name: "bg".into(),
            factory: compute_factory(10),
            threads: 1,
            role: Role::Background,
            base: 0,
            seed: 0,
        }]);
    }

    #[test]
    fn store_heavy_stream_generates_writebacks() {
        let factory: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base, 1 << 20);
            let a = r.array(64 * 1024 / 8, 8);
            // store_every = 1: every access is a store.
            Box::new(Seq::full(a, 0, 1, 1)) as Box<dyn SlotStream>
        });
        let m = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        let out = m.run(&[fg("w", factory, 1, 0)]);
        let app = &out.apps[0];
        assert!(app.write_bytes > 0, "dirty evictions must produce write traffic");
        // Every line is written; most get evicted and written back before
        // the run ends (lines still resident in caches at the end never
        // write back, so the ratio sits below 1).
        let ratio = app.write_bytes as f64 / app.read_bytes as f64;
        assert!((0.6..1.05).contains(&ratio), "write/read ratio {ratio}");
    }

    #[test]
    fn epoch_series_covers_run() {
        let m = tiny_machine();
        let out = m.run(&[fg("s", seq_factory(64 * 1024, 0), 1, 0)]);
        assert!(!out.epochs.is_empty());
        let total: u64 = out.epochs.iter().map(|e| e.total_bytes()).sum();
        assert_eq!(total, out.apps[0].read_bytes + out.apps[0].write_bytes);
    }

    #[test]
    fn inclusive_llc_back_invalidation_hurts_cache_resident_neighbor() {
        // A cache-resident app repeatedly sweeping a small array should
        // keep hitting L1/L2 — unless an LLC-thrashing neighbour's
        // evictions back-invalidate its private copies.
        let resident: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base, 4096);
            let a = r.array(128, 8); // 1 KiB, fits the tiny L1
            let parts: Vec<Box<dyn SlotStream>> = (0..600)
                .map(|_| Box::new(Seq::full(a, 0, 0, 1)) as Box<dyn SlotStream>)
                .collect();
            Box::new(cochar_trace::gen::Chain::new(parts)) as Box<dyn SlotStream>
        });
        let thrash: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base, 1 << 20);
            let a = r.array(64 * 1024 / 8, 8); // 4x the tiny LLC
            Box::new(Seq::full(a, 0, 0, 2)) as Box<dyn SlotStream>
        });
        let run = |inclusive: bool| {
            let mut cfg = MachineConfig::tiny();
            cfg.llc_inclusive = inclusive;
            let m = Machine::new(cfg).with_msr(Msr::all_off());
            let out = m.run(&[
                AppSpec {
                    name: "resident".into(),
                    factory: resident.clone(),
                    threads: 1,
                    role: Role::Foreground,
                    base: 0,
                    seed: 1,
                },
                AppSpec {
                    name: "thrash".into(),
                    factory: thrash.clone(),
                    threads: 1,
                    role: Role::Background,
                    base: 1 << 30,
                    seed: 2,
                },
            ]);
            out.app("resident").unwrap().counters.clone()
        };
        let incl = run(true);
        let nincl = run(false);
        assert!(
            incl.l1_misses() as f64 > nincl.l1_misses() as f64 * 1.5,
            "back-invalidation must create private-cache misses: inclusive {} vs non {}",
            incl.l1_misses(),
            nincl.l1_misses()
        );
    }

    #[test]
    fn per_pc_attribution_separates_access_sites() {
        // Two sites: pc 1 is cache-resident, pc 2 streams — the pending
        // cycles must land on pc 2.
        let factory: Arc<dyn StreamFactory> = Arc::new(|p: &StreamParams| {
            let mut r = Region::new(p.base, 1 << 20);
            let hot = r.array(64, 8); // fits L1
            let cold = r.array(64 * 1024 / 8, 8); // 16x tiny LLC
            Box::new(cochar_trace::gen::Interleave::new(vec![
                (Box::new(Seq::full(hot, 0, 0, 1)) as Box<dyn SlotStream>, 1),
                (Box::new(cochar_trace::gen::RandomAccess::new(
                    cold, 256, 0, 0, false, p.seed, 2,
                )) as Box<dyn SlotStream>, 4),
            ])) as Box<dyn SlotStream>
        });
        let m = Machine::new(MachineConfig::tiny()).with_msr(Msr::all_off());
        let out = m.run(&[AppSpec {
            name: "x".into(),
            factory,
            threads: 1,
            role: Role::Foreground,
            base: 0,
            seed: 3,
        }]);
        let c = &out.apps[0].counters;
        let find = |pc: u32| c.pc_stats.iter().find(|p| p.pc == pc).unwrap();
        let hot = find(1);
        let cold = find(2);
        assert_eq!(hot.accesses, 64);
        assert_eq!(cold.accesses, 256);
        assert!(cold.pending_cycles > 10 * hot.pending_cycles.max(1));
        assert_eq!(c.hotspots()[0].pc, 2, "the streaming site must rank hottest");
        // Per-pc accesses must cover all accesses.
        let total: u64 = c.pc_stats.iter().map(|p| p.accesses).sum();
        assert_eq!(total, c.accesses());
    }

    #[test]
    fn vecstream_empty_app_finishes_immediately() {
        let factory: Arc<dyn StreamFactory> =
            Arc::new(|_: &StreamParams| Box::new(VecStream::new(vec![])) as Box<dyn SlotStream>);
        let m = tiny_machine();
        let out = m.run(&[fg("empty", factory, 1, 0)]);
        assert!(!out.truncated);
        assert_eq!(out.apps[0].counters.instructions, 0);
    }
}

//! Memory controller: the shared bandwidth resource.
//!
//! All cores' LLC misses, prefetches, and dirty write-backs funnel through
//! a single controller that starts one 64-byte line transfer every
//! `line_service_millicycles`. When aggregate demand exceeds that rate,
//! requests queue and *every* requester's effective latency grows — this
//! queueing delay is the bandwidth-contention mechanism of the paper.
//!
//! The controller also keeps the pcm-memory-style books: bytes moved per
//! epoch per application, from which GB/s series are derived.

use crate::LINE_BYTES;

/// The controller's answer to a read request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Cycle at which the transfer begins (>= request time; the difference
    /// is queueing delay).
    pub start: u64,
    /// Cycle at which the data arrives at the LLC.
    pub completion: u64,
}

/// Per-epoch, per-application traffic record.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EpochTraffic {
    /// Read bytes per application id.
    pub read_bytes: Vec<u64>,
    /// Written-back bytes per application id.
    pub write_bytes: Vec<u64>,
}

impl EpochTraffic {
    fn new(apps: usize) -> Self {
        EpochTraffic { read_bytes: vec![0; apps], write_bytes: vec![0; apps] }
    }

    /// Total bytes in this epoch across all applications.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.iter().sum::<u64>() + self.write_bytes.iter().sum::<u64>()
    }

    /// Total bytes attributed to one application.
    pub fn app_bytes(&self, app: usize) -> u64 {
        self.read_bytes[app] + self.write_bytes[app]
    }
}

/// Address-interleaved multi-channel memory controller with deterministic
/// per-channel FIFO service. With one channel (the calibrated default)
/// this is a single FIFO at the aggregate rate; with more, lines
/// interleave by line number and each channel serves at `1/channels` of
/// the aggregate rate.
pub struct MemoryController {
    /// Per-channel service interval (aggregate interval x channels).
    service_mc: u64,
    dram_latency: u64,
    epoch_cycles: u64,
    apps: usize,
    /// Next free slot per channel, in millicycles.
    free_mc: Vec<u64>,
    /// Line counter for address-less requests: round-robins them across
    /// channels so `request_read`/`request_write` callers don't pile onto
    /// channel 0 under `with_channels(>1)`.
    rr_line: u64,
    epochs: Vec<EpochTraffic>,
    read_lines: u64,
    write_lines: u64,
    /// Cached epoch bounds for `record`'s batch fast path: index and
    /// start cycle of the epoch most recently booked into. Engine request
    /// times are (nearly) nondecreasing, so almost every request lands in
    /// the cached epoch and skips the division + resize check.
    cur_epoch: usize,
    cur_epoch_start: u64,
}

impl MemoryController {
    /// A controller serving one line per `service_mc` millicycles
    /// aggregate, with `dram_latency` cycles of access latency and
    /// per-epoch accounting for `apps` applications. Single channel; use
    /// [`MemoryController::with_channels`] for interleaving.
    pub fn new(service_mc: u64, dram_latency: u32, epoch_cycles: u64, apps: usize) -> Self {
        Self::with_channels(service_mc, dram_latency, epoch_cycles, apps, 1)
    }

    /// A controller with `channels` address-interleaved channels at the
    /// same aggregate service rate.
    pub fn with_channels(
        service_mc: u64,
        dram_latency: u32,
        epoch_cycles: u64,
        apps: usize,
        channels: u32,
    ) -> Self {
        assert!(service_mc > 0);
        assert!(epoch_cycles > 0);
        assert!(channels > 0);
        MemoryController {
            service_mc: service_mc * u64::from(channels),
            dram_latency: u64::from(dram_latency),
            epoch_cycles,
            apps: apps.max(1),
            free_mc: vec![0; channels as usize],
            rr_line: 0,
            epochs: Vec::new(),
            read_lines: 0,
            write_lines: 0,
            cur_epoch: 0,
            cur_epoch_start: 0,
        }
    }

    /// Books one line of traffic for `app` into the epoch of the *request*
    /// cycle. Attributing to the request epoch (not the service start)
    /// keeps the per-epoch GB/s ledger aligned with when the application
    /// generated the demand: under heavy queueing a service slot can land
    /// many epochs later — even after the requesting app has finished — and
    /// booking it there would skew `app_bytes_until` and the bandwidth
    /// time series toward the tail of the run.
    fn record(&mut self, request_cycle: u64, app: usize, write: bool) {
        // Fast path: the request lands in the epoch booked into last time
        // (engine time is nearly monotone, so this is the common case) —
        // no division, no resize check. `wrapping_sub` makes an earlier
        // cycle fall through to the slow path as a huge offset.
        let epoch = if request_cycle.wrapping_sub(self.cur_epoch_start) < self.epoch_cycles
            && self.cur_epoch < self.epochs.len()
        {
            self.cur_epoch
        } else {
            let epoch = (request_cycle / self.epoch_cycles) as usize;
            if epoch >= self.epochs.len() {
                self.epochs.resize_with(epoch + 1, || EpochTraffic::new(self.apps));
            }
            self.cur_epoch = epoch;
            self.cur_epoch_start = epoch as u64 * self.epoch_cycles;
            epoch
        };
        debug_assert_eq!(epoch, (request_cycle / self.epoch_cycles) as usize);
        let e = &mut self.epochs[epoch];
        if write {
            e.write_bytes[app] += LINE_BYTES;
        } else {
            e.read_bytes[app] += LINE_BYTES;
        }
    }

    #[inline]
    fn channel_of(&self, line: u64) -> usize {
        (line % self.free_mc.len() as u64) as usize
    }

    fn grant_slot(&mut self, now: u64, line: u64) -> u64 {
        let ch = self.channel_of(line);
        let now_mc = now * 1000;
        let start_mc = self.free_mc[ch].max(now_mc);
        self.free_mc[ch] = start_mc + self.service_mc;
        start_mc / 1000
    }

    /// The synthetic line used for the next address-less request: a
    /// monotone counter, so consecutive requests interleave across all
    /// channels instead of pinning (and starving) channel 0.
    fn next_rr_line(&mut self) -> u64 {
        let line = self.rr_line;
        self.rr_line = self.rr_line.wrapping_add(1);
        line
    }

    /// A demand or prefetch read of `line` on behalf of `app`. The data
    /// is available at `Grant::completion`.
    pub fn request_read_line(&mut self, now: u64, app: usize, line: u64) -> Grant {
        let _t = crate::stats::PhaseTimer::start(&crate::stats::MEMCTRL_NS);
        let start = self.grant_slot(now, line);
        self.read_lines += 1;
        self.record(now, app, false);
        Grant { start, completion: start + self.dram_latency }
    }

    /// Address-less read for callers without a line address; round-robins
    /// across channels (equivalent to line 0 on a single-channel
    /// controller).
    pub fn request_read(&mut self, now: u64, app: usize) -> Grant {
        let line = self.next_rr_line();
        self.request_read_line(now, app, line)
    }

    /// A dirty-line write-back of `line` on behalf of `app`. Write-backs
    /// occupy a service slot (consuming bandwidth) but nothing waits on
    /// them.
    pub fn request_write_line(&mut self, now: u64, app: usize, line: u64) {
        let _t = crate::stats::PhaseTimer::start(&crate::stats::MEMCTRL_NS);
        self.grant_slot(now, line);
        self.write_lines += 1;
        self.record(now, app, true);
    }

    /// Address-less write; round-robins across channels like
    /// [`MemoryController::request_read`].
    pub fn request_write(&mut self, now: u64, app: usize) {
        let line = self.next_rr_line();
        self.request_write_line(now, app, line)
    }

    /// Queueing delay for a request to `line` arriving at `now`, cycles.
    pub fn queue_delay_line(&self, now: u64, line: u64) -> u64 {
        (self.free_mc[self.channel_of(line)] / 1000).saturating_sub(now)
    }

    /// Worst-channel queueing delay at `now`, in cycles.
    pub fn queue_delay(&self, now: u64) -> u64 {
        let _t = crate::stats::PhaseTimer::start(&crate::stats::MEMCTRL_NS);
        self.free_mc
            .iter()
            .map(|&f| (f / 1000).saturating_sub(now))
            .max()
            .unwrap_or(0)
    }

    /// Lines read from memory so far.
    pub fn read_lines(&self) -> u64 {
        self.read_lines
    }

    /// Lines written back so far.
    pub fn write_lines(&self) -> u64 {
        self.write_lines
    }

    /// The per-epoch traffic ledger.
    pub fn epochs(&self) -> &[EpochTraffic] {
        &self.epochs
    }

    /// Epoch length in cycles.
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// Total bytes attributed to `app` in cycle range `[0, until)`.
    pub fn app_bytes_until(&self, app: usize, until: u64) -> u64 {
        let full = (until / self.epoch_cycles) as usize;
        let mut bytes: u64 = self
            .epochs
            .iter()
            .take(full)
            .map(|e| e.app_bytes(app))
            .sum();
        // Pro-rate the partial epoch.
        if let Some(e) = self.epochs.get(full) {
            let frac = (until % self.epoch_cycles) as f64 / self.epoch_cycles as f64;
            bytes += (e.app_bytes(app) as f64 * frac) as u64;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemoryController {
        // 6000 mc per line = 6 cycles per line.
        MemoryController::new(6000, 200, 1000, 2)
    }

    #[test]
    fn idle_controller_serves_immediately() {
        let mut c = ctrl();
        let g = c.request_read(100, 0);
        assert_eq!(g.start, 100);
        assert_eq!(g.completion, 300);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut c = ctrl();
        let g1 = c.request_read(0, 0);
        let g2 = c.request_read(0, 0);
        let g3 = c.request_read(0, 0);
        assert_eq!(g1.start, 0);
        assert_eq!(g2.start, 6);
        assert_eq!(g3.start, 12);
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut c = ctrl();
        assert_eq!(c.queue_delay(0), 0);
        for _ in 0..10 {
            c.request_read(0, 0);
        }
        assert_eq!(c.queue_delay(0), 60);
        assert_eq!(c.queue_delay(60), 0);
    }

    #[test]
    fn late_arrival_after_idle_gap_starts_at_arrival() {
        let mut c = ctrl();
        c.request_read(0, 0);
        let g = c.request_read(1000, 0);
        assert_eq!(g.start, 1000);
    }

    #[test]
    fn epoch_accounting_per_app() {
        let mut c = ctrl();
        c.request_read(0, 0); // epoch 0, app 0
        c.request_read(500, 1); // epoch 0, app 1
        c.request_write(1500, 0); // epoch 1, app 0
        let e = c.epochs();
        assert_eq!(e[0].read_bytes[0], LINE_BYTES);
        assert_eq!(e[0].read_bytes[1], LINE_BYTES);
        assert_eq!(e[0].total_bytes(), 2 * LINE_BYTES);
        assert_eq!(e[1].write_bytes[0], LINE_BYTES);
        assert_eq!(e[1].app_bytes(0), LINE_BYTES);
    }

    #[test]
    fn line_counters_split_reads_and_writes() {
        let mut c = ctrl();
        c.request_read(0, 0);
        c.request_read(0, 0);
        c.request_write(0, 1);
        assert_eq!(c.read_lines(), 2);
        assert_eq!(c.write_lines(), 1);
    }

    #[test]
    fn sustained_rate_matches_service_interval() {
        let mut c = ctrl();
        // Saturate: 1000 requests at time 0.
        let mut last = 0;
        for _ in 0..1000 {
            last = c.request_read(0, 0).start;
        }
        // 1000 lines at 6 cycles each: last starts at 5994.
        assert_eq!(last, 5994);
    }

    #[test]
    fn app_bytes_until_prorates_partial_epoch() {
        let mut c = ctrl();
        // 4 reads in epoch 0 spread evenly.
        for t in [0u64, 250, 500, 750] {
            c.request_read(t, 0);
        }
        let all = c.app_bytes_until(0, 1000);
        assert_eq!(all, 4 * LINE_BYTES);
        let half = c.app_bytes_until(0, 500);
        assert_eq!(half, 4 * LINE_BYTES / 2);
    }

    #[test]
    fn queued_traffic_is_booked_to_the_request_epoch() {
        // epoch = 1000 cycles, 6 cycles/line: 300 requests at cycle 0 keep
        // the controller busy until cycle 1794 — well into epoch 1. All
        // bytes belong to epoch 0, when the demand was generated.
        let mut c = ctrl();
        let mut last_start = 0;
        for _ in 0..300 {
            last_start = c.request_read(0, 0).start;
        }
        assert!(last_start > 1000, "backlog must spill past the epoch boundary");
        assert_eq!(c.epochs().len(), 1, "no service-start spill into epoch 1");
        assert_eq!(c.epochs()[0].read_bytes[0], 300 * LINE_BYTES);
        // And `app_bytes_until` at the requesting app's completion sees
        // everything it asked for.
        assert_eq!(c.app_bytes_until(0, 1000), 300 * LINE_BYTES);
    }

    /// The cached-epoch fast path must book every request into epoch
    /// `t / epoch_cycles`, including backward time jumps and multi-epoch
    /// skips.
    #[test]
    fn cached_epoch_accounting_matches_division_for_any_order() {
        let times =
            [0u64, 500, 999, 1000, 1500, 1499, 2, 10_000, 9_999, 10_001, 0, 2_000, 1_999];
        let mut c = ctrl();
        let mut expected = vec![EpochTraffic::new(2); 11];
        for (i, &t) in times.iter().enumerate() {
            let app = i % 2;
            let e = &mut expected[(t / 1000) as usize];
            if i % 3 == 0 {
                c.request_write(t, app);
                e.write_bytes[app] += LINE_BYTES;
            } else {
                c.request_read(t, app);
                e.read_bytes[app] += LINE_BYTES;
            }
        }
        assert_eq!(c.epochs(), expected);
    }

    #[test]
    fn addressless_requests_round_robin_across_channels() {
        // 2 channels: consecutive address-less reads must alternate
        // channels rather than pile onto channel 0.
        let mut c = MemoryController::with_channels(6000, 200, 1000, 1, 2);
        let g1 = c.request_read(0, 0);
        let g2 = c.request_read(0, 0);
        let g3 = c.request_read(0, 0);
        assert_eq!(g1.start, 0);
        assert_eq!(g2.start, 0, "second request must land on the idle channel");
        assert_eq!(g3.start, 12, "third wraps to channel 0 (per-channel interval 12)");
        // Writes share the same cursor: the 4th request lands on channel 1.
        c.request_write(0, 0);
        assert_eq!(c.queue_delay_line(0, 0), 24, "channel 0 holds exactly 2 lines");
        assert_eq!(c.queue_delay_line(0, 1), 24, "channel 1 holds exactly 2 lines");
    }

    #[test]
    fn single_channel_addressless_behavior_is_unchanged() {
        let mut c = ctrl();
        let g1 = c.request_read(0, 0);
        let g2 = c.request_read(0, 0);
        assert_eq!((g1.start, g2.start), (0, 6));
    }

    #[test]
    fn channels_interleave_by_line() {
        // 2 channels: even and odd lines queue independently at half the
        // aggregate rate each.
        let mut c = MemoryController::with_channels(6000, 200, 1000, 1, 2);
        let g_even1 = c.request_read_line(0, 0, 0);
        let g_even2 = c.request_read_line(0, 0, 2);
        let g_odd = c.request_read_line(0, 0, 1);
        assert_eq!(g_even1.start, 0);
        // Same channel: spaced by the per-channel interval (12 cycles).
        assert_eq!(g_even2.start, 12);
        // Other channel: not blocked by the even backlog.
        assert_eq!(g_odd.start, 0);
    }

    #[test]
    fn aggregate_rate_is_channel_invariant() {
        // Uniformly interleaved traffic completes at the same aggregate
        // rate regardless of channel count.
        for channels in [1u32, 2, 4] {
            let mut c = MemoryController::with_channels(6000, 200, 100_000, 1, channels);
            let mut last = 0;
            for line in 0..400u64 {
                last = last.max(c.request_read_line(0, 0, line).start);
            }
            // 400 lines at 6 cycles aggregate: last start ~ 2394 +- interval.
            assert!(
                (2370..=2400).contains(&last),
                "channels={channels}: last start {last}"
            );
        }
    }

    #[test]
    fn fractional_service_interval_accumulates() {
        // 6170 mc = 6.17 cycles per line: over 100 lines the starts must
        // span 617 cycles, not 600.
        let mut c = MemoryController::new(6170, 200, 1_000_000, 1);
        let mut last = 0;
        for _ in 0..101 {
            last = c.request_read(0, 0).start;
        }
        assert_eq!(last, 617);
    }
}

//! The [`Study`]: machine + registry + measurement protocol.
//!
//! Reproduces the paper's experiment setup (Sec. III): applications run
//! with 4 threads each, pinned to disjoint cores; the only shared
//! resources are the LLC and the memory subsystem. Foreground runtime is
//! the measurement; background applications restart until the foreground
//! completes; every measurement can be repeated over several trials
//! (the paper uses 3) with the median reported.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cochar_machine::{AppSpec, Machine, MachineConfig, Msr, Role, RunOutcome, StableHash, StableHasher};
use cochar_store::{RunKey, RunStore, StoreError, SCHEMA_VERSION};
use cochar_workloads::{Registry, WorkloadSpec};

use crate::metrics::Profile;

/// Address-region bases: applications are separated by 2^40 bytes so they
/// never share data while still colliding in cache sets.
const FG_BASE: u64 = 1 << 40;
const BG_BASE: u64 = 2 << 40;

/// Result of a solo (no-interference) run.
#[derive(Clone, Debug)]
pub struct SoloResult {
    /// Application name.
    pub name: String,
    /// Threads the run used.
    pub threads: usize,
    /// Median elapsed cycles over the trials.
    pub elapsed_cycles: u64,
    /// Profile of the median trial.
    pub profile: Profile,
    /// Full outcome of the median trial.
    pub outcome: Arc<RunOutcome>,
}

/// Result of one co-running pair (foreground measured, background looping).
#[derive(Clone, Debug)]
pub struct PairResult {
    /// Foreground application's profile during the co-run.
    pub fg: Profile,
    /// Background application's profile during the co-run.
    pub bg: Profile,
    /// Foreground co-run time over its solo time — the Fig. 5 cell value.
    pub fg_slowdown: f64,
    /// The run hit the cycle cap before the foreground finished.
    pub truncated: bool,
    /// The forward-progress watchdog fired: no application retired an
    /// instruction for the configured window. A stalled cell is a
    /// poisoned measurement and must be surfaced, never averaged.
    pub stalled: bool,
    /// Full outcome of the co-run (epochs, per-core counters).
    pub outcome: Arc<RunOutcome>,
}

/// Test-only fault injection for one heatmap cell (armed via
/// `Study::with_chaos_cell`, surfaced in the CLI as `COCHAR_CHAOS_CELL`).
#[derive(Clone, Debug)]
struct ChaosCell {
    fg: String,
    bg: String,
    /// Attempts below this threshold panic; from this attempt on the
    /// cell computes normally (so `0` never fires and `u32::MAX` means
    /// the cell always fails).
    succeed_from: u32,
}

/// Cumulative run counters for a study family (shared with derived
/// studies). A repeat of a run already in the run table bumps neither.
#[derive(Default)]
struct RunCounters {
    /// Fresh `Machine::run` invocations: once per distinct keyed run,
    /// plus every run that cannot be keyed.
    simulated: AtomicU64,
    /// Keyed runs adopted from the persistent store's journal (once per
    /// key).
    cached: AtomicU64,
}

/// Every keyed run a study family has resolved, by fingerprint. A key's
/// slot is created on first request and filled exactly once, so a run
/// that several threads ask for at the same time still simulates once.
type RunTable = Mutex<HashMap<RunKey, Arc<OnceLock<Arc<RunOutcome>>>>>;

/// A configured measurement campaign.
pub struct Study {
    cfg: MachineConfig,
    msr: Msr,
    registry: Arc<Registry>,
    threads: usize,
    trials: u32,
    base_seed: u64,
    runs: Arc<RunTable>,
    store: Option<RunStore>,
    store_reads: bool,
    /// Latched once a store append fails persistently: the study keeps
    /// simulating but stops journaling, and the CLI reports a distinct
    /// exit code. Shared with derived studies.
    store_degraded: Arc<AtomicBool>,
    chaos_cell: Option<ChaosCell>,
    counters: Arc<RunCounters>,
}

impl Study {
    /// A study on `cfg` over `registry`, defaulting to the paper's
    /// protocol: 4 threads per application, 1 trial (the simulator is
    /// deterministic; use [`Study::with_trials`] to vary seeds).
    pub fn new(cfg: MachineConfig, registry: Arc<Registry>) -> Self {
        Study {
            cfg,
            msr: Msr::all_on(),
            registry,
            threads: 4,
            trials: 1,
            base_seed: 1,
            runs: Arc::default(),
            store: None,
            store_reads: true,
            store_degraded: Arc::new(AtomicBool::new(false)),
            chaos_cell: None,
            counters: Arc::new(RunCounters::default()),
        }
    }

    /// A new study on the same machine, registry, protocol, run table,
    /// store, and run counters, with a different prefetcher MSR. Derived
    /// studies (the MSR-endpoint comparisons of the prefetcher analysis)
    /// resolve runs through the same table, so a solo the parent study
    /// already ran is never simulated again.
    pub fn derive_with_msr(&self, msr: Msr) -> Study {
        Study {
            cfg: self.cfg.clone(),
            msr,
            registry: self.registry.clone(),
            threads: self.threads,
            trials: self.trials,
            base_seed: self.base_seed,
            runs: Arc::clone(&self.runs),
            store: self.store.clone(),
            store_reads: self.store_reads,
            store_degraded: Arc::clone(&self.store_degraded),
            chaos_cell: self.chaos_cell.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Like [`Study::derive_with_msr`], with a different machine
    /// configuration (the ablation studies). Run keys fingerprint the
    /// whole configuration, so the shared run table never aliases runs
    /// across machines.
    pub fn derive_with_config(&self, cfg: MachineConfig) -> Study {
        Study { cfg, ..self.derive_with_msr(self.msr) }
    }

    /// Sets the per-application thread count (paper default: 4).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// Sets the number of trials (median-of-N, paper uses 3).
    pub fn with_trials(mut self, trials: u32) -> Self {
        assert!(trials > 0);
        self.trials = trials;
        self
    }

    /// Sets the prefetcher MSR for all runs of this study.
    pub fn with_msr(mut self, msr: Msr) -> Self {
        self.msr = msr;
        self
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Backs this study with a persistent run store: completed runs are
    /// journaled as they finish and prior results are reused, making
    /// sweeps crash-safe and resumable.
    pub fn with_store(mut self, store: RunStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Controls whether cached outcomes are *read* from the store
    /// (default: true). With reads off, nothing is adopted from the
    /// journal: each distinct run simulates once in this process and is
    /// still journaled — `--no-cache` semantics.
    pub fn with_store_reads(mut self, reads: bool) -> Self {
        self.store_reads = reads;
        self
    }

    /// Arms a fault-injecting panic in the `(fg, bg)` pair cell: attempts
    /// below `succeed_from` panic, later attempts run normally. This is
    /// the hook the chaos tests (and `COCHAR_CHAOS_CELL`) use to prove
    /// that the sweep supervisor isolates, retries, and reports cell
    /// failures; it is inert unless explicitly armed.
    pub fn with_chaos_cell(mut self, fg: &str, bg: &str, succeed_from: u32) -> Self {
        self.chaos_cell =
            Some(ChaosCell { fg: fg.to_string(), bg: bg.to_string(), succeed_from });
        self
    }

    /// The persistent store backing this study, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// True once journaling has been abandoned after a persistent append
    /// failure: results from this study are correct but were not all
    /// persisted, so a resumed sweep will re-simulate them.
    pub fn store_degraded(&self) -> bool {
        self.store_degraded.load(Ordering::Relaxed)
    }

    /// Cumulative `(simulated, cached)` run counts across this study and
    /// everything derived from it: runs simulated in this process, and
    /// keyed runs adopted from the store's journal. Each keyed run counts
    /// once, however often it is asked for.
    pub fn run_counts(&self) -> (u64, u64) {
        (
            self.counters.simulated.load(Ordering::Relaxed),
            self.counters.cached.load(Ordering::Relaxed),
        )
    }

    /// The machine configuration under study.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The workload registry under study.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A shared handle to the registry (for derived studies, e.g. MSR
    /// endpoint comparisons).
    pub fn registry_arc(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Threads per application (paper default: 4).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The prefetcher MSR applied to every run.
    pub fn msr(&self) -> Msr {
        self.msr
    }

    /// Looks a workload up by name.
    ///
    /// # Panics
    /// Panics with the list of valid names if absent — experiment scripts
    /// should fail loudly on typos.
    pub fn spec(&self, name: &str) -> &WorkloadSpec {
        self.registry.get(name).unwrap_or_else(|| {
            let names: Vec<_> = self.registry.all().iter().map(|s| s.name).collect();
            panic!("unknown workload {name:?}; known: {names:?}")
        })
    }

    fn machine(&self) -> Machine {
        Machine::new(self.cfg.clone()).with_msr(self.msr)
    }

    fn app_spec(&self, spec: &WorkloadSpec, role: Role, base: u64, seed: u64, threads: usize) -> AppSpec {
        AppSpec {
            name: spec.name.to_string(),
            factory: spec.factory.clone(),
            threads,
            role,
            base,
            seed,
        }
    }

    /// The stable fingerprint of one `Machine::run`, or `None` when the
    /// run cannot be safely keyed.
    ///
    /// A run is keyable only when every app spec is *registry-canonical*:
    /// its name resolves in the registry **and** its factory is the very
    /// `Arc` the registry holds. Derived specs (throttled variants,
    /// bubbles, custom apps) may reuse a registry name with different
    /// behavior, so they are conservatively excluded from the cache and
    /// always simulated.
    fn run_key(&self, apps: &[AppSpec]) -> Option<RunKey> {
        for app in apps {
            let canon = self.registry.get(&app.name)?;
            if !Arc::ptr_eq(&canon.factory, &app.factory) {
                return None;
            }
        }
        let mut h = StableHasher::new();
        h.write_u32(SCHEMA_VERSION);
        self.cfg.stable_hash(&mut h);
        self.msr.stable_hash(&mut h);
        let sc = self.registry.scale();
        h.write_u64(sc.llc_bytes);
        h.write_f64(sc.work);
        h.write_u32(sc.graph_scale);
        h.write_u32(sc.graph_edge_factor);
        h.write_u64(sc.seed);
        h.write_usize(apps.len());
        for app in apps {
            h.write_str(&app.name);
            app.role.stable_hash(&mut h);
            h.write_usize(app.threads);
            h.write_u64(app.base);
            h.write_u64(app.seed);
        }
        Some(RunKey(h.finish()))
    }

    /// The store fingerprints of every trial a [`Study::solo`] for `name`
    /// would run, or empty when the runs cannot be keyed (unknown name —
    /// the caller decides how loud to be about that).
    ///
    /// This is the fabric's pre-seeding hook: the coordinator looks these
    /// keys up after computing the solos and ships the matching journal
    /// records to workers, which then answer every solo from cache.
    pub fn solo_keys(&self, name: &str) -> Vec<RunKey> {
        let Some(spec) = self.registry.get(name) else { return Vec::new() };
        self.trial_keys(self.trial_apps(spec, None, self.threads, 0))
    }

    /// The store fingerprints of every trial a
    /// [`Study::pair_attempt`]`(fg, bg, attempt)` would run, or empty when
    /// the runs cannot be keyed. When every returned key is resident in
    /// the store, the pair resolves entirely from cache — which is how
    /// the fabric coordinator answers already-journaled cells without
    /// leasing them out.
    pub fn pair_keys(&self, fg: &str, bg: &str, attempt: u32) -> Vec<RunKey> {
        let (Some(fg_spec), Some(bg_spec)) = (self.registry.get(fg), self.registry.get(bg))
        else {
            return Vec::new();
        };
        self.trial_keys(self.trial_apps(fg_spec, Some(bg_spec), self.threads, attempt))
    }

    /// The keys of `trials`, or empty when any of them cannot be keyed.
    fn trial_keys(&self, trials: Vec<Vec<AppSpec>>) -> Vec<RunKey> {
        trials.iter().map(|apps| self.run_key(apps)).collect::<Option<_>>().unwrap_or_default()
    }

    /// The apps of every trial run: `fg` in the foreground with `threads`
    /// threads, and for a pair `bg` looping in the background. Trial `t`
    /// seeds the foreground with `base_seed + 1000·t`, bumped by retry
    /// `attempt` (attempt 0 leaves it alone), and the background with that
    /// seed `^ 0x5EED`. The runs and [`Study::solo_keys`] /
    /// [`Study::pair_keys`] both build trials here, so the published keys
    /// are the ones the runs journal.
    fn trial_apps(
        &self,
        fg: &WorkloadSpec,
        bg: Option<&WorkloadSpec>,
        threads: usize,
        attempt: u32,
    ) -> Vec<Vec<AppSpec>> {
        let bump = u64::from(attempt).wrapping_mul(0x9E37_79B9);
        (0..self.trials)
            .map(|t| {
                let seed = (self.base_seed + 1000 * u64::from(t)).wrapping_add(bump);
                let mut apps = vec![self.app_spec(fg, Role::Foreground, FG_BASE, seed, threads)];
                if let Some(bg) = bg {
                    apps.push(self.app_spec(bg, Role::Background, BG_BASE, seed ^ 0x5EED, threads));
                }
                apps
            })
            .collect()
    }

    /// Executes one run through the run table.
    ///
    /// A keyed run resolves once per study family: from the table if it
    /// is there, else adopted from the store (when reads are on), else
    /// simulated and journaled. Each trial is keyed and journaled
    /// individually, so a killed sweep loses at most the runs that were
    /// in flight, and a partial `--trials N` campaign resumes per trial
    /// rather than per cell. Runs that cannot be keyed always simulate.
    fn run_one(&self, apps: &[AppSpec]) -> Arc<RunOutcome> {
        let Some(key) = self.run_key(apps) else {
            self.counters.simulated.fetch_add(1, Ordering::Relaxed);
            return Arc::new(self.machine().run(apps));
        };
        let slot =
            Arc::clone(self.runs.lock().expect("run table poisoned").entry(key).or_default());
        Arc::clone(slot.get_or_init(|| {
            let hit = self.store.as_ref().filter(|_| self.store_reads).and_then(|s| s.get(key));
            if let Some(hit) = hit {
                self.counters.cached.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            let outcome = Arc::new(self.machine().run(apps));
            self.counters.simulated.fetch_add(1, Ordering::Relaxed);
            if let Some(store) = &self.store {
                self.put_resilient(store, key, outcome.clone());
            }
            outcome
        }))
    }

    /// Journals an outcome, riding out transient IO errors and degrading
    /// to cache-less operation on persistent ones.
    ///
    /// Transient kinds (EINTR, EWOULDBLOCK, timeouts) are retried with
    /// bounded exponential backoff — a blip should not cost a cache
    /// entry. Anything else (ENOSPC, EIO, permission loss) latches the
    /// shared degraded flag: the sweep keeps producing correct results,
    /// journaling stops (including the backoff cost), a warning is
    /// printed once, and the CLI exits with a distinct nonzero code so
    /// scripts know the cache is incomplete.
    fn put_resilient(&self, store: &RunStore, key: RunKey, outcome: Arc<RunOutcome>) {
        const TRANSIENT_TRIES: u32 = 4;
        if self.store_degraded.load(Ordering::Relaxed) {
            return;
        }
        let mut delay = std::time::Duration::from_millis(1);
        let mut tries = 0;
        let cause = loop {
            let e = match store.put(key, outcome.clone()) {
                Ok(()) => return,
                Err(e) => e,
            };
            let transient = matches!(
                &e,
                StoreError::Io(io) if matches!(
                    io.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                )
            );
            tries += 1;
            if !transient || tries >= TRANSIENT_TRIES {
                break e;
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(std::time::Duration::from_millis(100));
        };
        if !self.store_degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: run store append failed persistently ({cause}); \
                 continuing without persistence — results are unaffected, \
                 but this sweep will not be resumable"
            );
        }
    }

    /// Runs every trial and returns the median-by-foreground-runtime
    /// outcome.
    ///
    /// The median is a real measured element: after sorting, index
    /// `(n - 1) / 2` — the exact middle for odd `n`, the lower middle for
    /// even `n`. (An earlier version took `n / 2`, which for even trial
    /// counts reported the *upper* middle, biasing even-N medians high.)
    fn median_run(&self, trials: Vec<Vec<AppSpec>>) -> Arc<RunOutcome> {
        let mut outcomes: Vec<Arc<RunOutcome>> =
            trials.iter().map(|apps| self.run_one(apps)).collect();
        outcomes.sort_by_key(|o| o.apps[0].elapsed_cycles);
        outcomes.swap_remove((outcomes.len() - 1) / 2)
    }

    /// Runs `name` alone with the study's thread count (cached).
    pub fn solo(&self, name: &str) -> Arc<SoloResult> {
        self.solo_with_threads(name, self.threads)
    }

    /// Runs `name` alone with an explicit thread count (cached).
    pub fn solo_with_threads(&self, name: &str, threads: usize) -> Arc<SoloResult> {
        let spec = self.spec(name);
        let outcome = self.median_run(self.trial_apps(spec, None, threads, 0));
        let app = &outcome.apps[0];
        Arc::new(SoloResult {
            name: name.to_string(),
            threads,
            elapsed_cycles: app.elapsed_cycles,
            profile: Profile::from_app(app, self.cfg.freq_ghz),
            outcome: outcome.clone(),
        })
    }

    /// Co-runs foreground `fg` against looping background `bg`
    /// (4+4 core binding as in the paper's Fig. 1) and reports the
    /// foreground's normalized runtime.
    pub fn pair(&self, fg: &str, bg: &str) -> PairResult {
        self.pair_attempt(fg, bg, 0)
    }

    /// Like [`Study::pair`], with a supervisor retry attempt number.
    ///
    /// Attempt `n > 0` perturbs the pair seeds deterministically (the
    /// solo baseline is untouched, so the denominator stays cached and
    /// comparable), which is what lets a retried cell dodge a
    /// seed-dependent failure while remaining reproducible: the same
    /// attempt always simulates the same run.
    pub fn pair_attempt(&self, fg: &str, bg: &str, attempt: u32) -> PairResult {
        if let Some(chaos) = &self.chaos_cell {
            if chaos.fg == fg && chaos.bg == bg && attempt < chaos.succeed_from {
                panic!("chaos: injected failure for cell {fg}/{bg} (attempt {attempt})");
            }
        }
        let bg_spec = self.spec(bg).clone();
        self.pair_against_attempt(fg, &bg_spec, attempt)
    }

    /// Like [`Study::pair`], but against a background workload that is
    /// not in the registry (synthetic stressors, bubbles, custom apps).
    pub fn pair_against(&self, fg: &str, bg_spec: &WorkloadSpec) -> PairResult {
        self.pair_against_attempt(fg, bg_spec, 0)
    }

    /// [`Study::pair_against`] with a retry attempt number (see
    /// [`Study::pair_attempt`] for the reseeding contract).
    pub fn pair_against_attempt(
        &self,
        fg: &str,
        bg_spec: &WorkloadSpec,
        attempt: u32,
    ) -> PairResult {
        let fg_spec = self.spec(fg);
        assert!(
            2 * self.threads <= self.cfg.cores,
            "pair runs need 2*{} cores, machine has {}",
            self.threads,
            self.cfg.cores
        );
        let solo = self.solo(fg);
        let outcome =
            self.median_run(self.trial_apps(fg_spec, Some(bg_spec), self.threads, attempt));
        let fg_app = &outcome.apps[0];
        let bg_app = &outcome.apps[1];
        PairResult {
            fg: Profile::from_app(fg_app, self.cfg.freq_ghz),
            bg: Profile::from_app(bg_app, self.cfg.freq_ghz),
            fg_slowdown: fg_app.elapsed_cycles as f64 / solo.elapsed_cycles as f64,
            truncated: outcome.truncated,
            stalled: outcome.stalled,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cochar_workloads::Scale;

    fn study() -> Study {
        // tiny machine has 2 cores: 1 thread per app for pair runs.
        Study::new(MachineConfig::tiny(), Arc::new(Registry::new(Scale::tiny())))
            .with_threads(1)
    }

    #[test]
    fn solo_is_cached() {
        let s = study();
        let a = s.solo("blackscholes");
        let b = s.solo("blackscholes");
        assert!(Arc::ptr_eq(&a.outcome, &b.outcome), "the repeat reads the run table");
        assert_eq!(s.run_counts().0, 1, "one simulation for two lookups");
        assert!(a.elapsed_cycles > 0);
    }

    #[test]
    fn solo_cache_distinguishes_threads_and_msr() {
        let s = study();
        let t1 = s.solo_with_threads("blackscholes", 1);
        let t2 = s.solo_with_threads("blackscholes", 2);
        assert!(!Arc::ptr_eq(&t1.outcome, &t2.outcome));
        assert!(t2.elapsed_cycles < t1.elapsed_cycles, "2 threads should be faster");

        // A derived study shares the table: its own MSR keys a distinct
        // run, the parent's MSR hits the parent's entry.
        let off = s.derive_with_msr(Msr::all_off()).solo_with_threads("blackscholes", 1);
        assert!(!Arc::ptr_eq(&t1.outcome, &off.outcome));
        let on = s.derive_with_msr(Msr::all_on()).solo_with_threads("blackscholes", 1);
        assert!(Arc::ptr_eq(&t1.outcome, &on.outcome));
        assert_eq!(s.run_counts(), (3, 0));
    }

    #[test]
    fn concurrent_requests_for_one_run_simulate_it_once() {
        let s = study();
        let start = std::sync::Barrier::new(4);
        let solos: Vec<_> = std::thread::scope(|scope| {
            let ask = || {
                start.wait();
                s.solo("stream")
            };
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(ask)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(solos.iter().all(|r| Arc::ptr_eq(&r.outcome, &solos[0].outcome)));
        assert_eq!(s.run_counts(), (1, 0));
    }

    #[test]
    fn pair_reports_slowdown_at_least_near_one() {
        let s = study();
        let p = s.pair("blackscholes", "swaptions");
        assert!(!p.truncated);
        // Compute-bound pair on separate cores: near-zero interference.
        assert!(
            (0.95..1.2).contains(&p.fg_slowdown),
            "compute pair slowdown {}",
            p.fg_slowdown
        );
    }

    #[test]
    fn memory_pair_interferes_more_than_compute_pair() {
        let s = study();
        let quiet = s.pair("stream", "swaptions").fg_slowdown;
        let noisy = s.pair("stream", "stream").fg_slowdown;
        assert!(
            noisy > quiet + 0.1,
            "stream vs stream ({noisy:.2}) must beat stream vs swaptions ({quiet:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics_with_catalog() {
        let s = study();
        let _ = s.solo("no-such-app");
    }

    #[test]
    fn trials_pick_median() {
        let s = study().with_trials(3);
        let r = s.solo("freqmine");
        assert!(r.elapsed_cycles > 0);
    }

    #[test]
    fn published_keys_match_what_actually_journals() {
        let dir = std::env::temp_dir()
            .join(format!("cochar-study-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = study().with_trials(2).with_store(RunStore::open(&dir).unwrap());

        // Every key solo_keys/pair_keys predicts must be exactly what the
        // corresponding run journals — that contract is what lets the
        // fabric pre-seed workers and resolve cached cells by key.
        let _ = s.solo("blackscholes");
        let solo_keys = s.solo_keys("blackscholes");
        assert_eq!(solo_keys.len(), 2, "one key per trial");
        let store = s.store().unwrap();
        assert!(solo_keys.iter().all(|&k| store.contains(k)));

        let before = store.len();
        let _ = s.pair_attempt("blackscholes", "swaptions", 1);
        let pair_keys = s.pair_keys("blackscholes", "swaptions", 1);
        assert_eq!(pair_keys.len(), 2);
        assert!(pair_keys.iter().all(|&k| store.contains(k)));
        // And nothing beyond the predicted keys (plus swaptions' absent
        // solo — pair_attempt only adds pair runs, fg solo was resident).
        assert_eq!(store.len(), before + pair_keys.len());

        // Distinct attempts key distinct runs; unknown names key nothing.
        assert_ne!(pair_keys, s.pair_keys("blackscholes", "swaptions", 0));
        assert!(s.solo_keys("no-such-app").is_empty());
        assert!(s.pair_keys("no-such-app", "swaptions", 0).is_empty());
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

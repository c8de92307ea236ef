//! Set-associative cache with true-LRU replacement.
//!
//! Line metadata lives in a single flat array of 16-byte `(tag, meta)`
//! ways indexed by `set * ways + way`; the meta word packs the dirty and
//! prefetch bits next to a 62-bit last-touch LRU stamp. The packed
//! layout is the point: the simulated LLC's metadata spans megabytes, so
//! every probe is a *host* cache miss — one 16-byte way keeps tag check,
//! stamp refresh, and flag updates inside a single host cache line where
//! the previous parallel-array layout touched four.
//!
//! Three hot-path shortcuts, each returning exactly what a plain set scan
//! would (tags are unique per set, stamps are unique among valid lines);
//! the unit tests pin them against a true-LRU model operation by
//! operation:
//!
//! * **MRU-way hint** — `access`/`mark_dirty` probe the last-touched way
//!   of the set before scanning; spatial locality makes this hit most of
//!   the time.
//! * **Fused insert** — presence check, free-way search, and LRU victim
//!   selection in a single pass instead of two scans per miss.
//! * **Miss plans** — a miss probe (`access`/`probe`) records where an
//!   insert of that line would land; the insert that typically follows
//!   reuses the recorded slot and skips its set scan entirely, guarded by
//!   a mutation counter that proves nothing changed in between.

use crate::config::CacheConfig;

/// A line evicted by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line number (address / 64) of the victim.
    pub line: u64,
    /// The victim held modified data and must be written back.
    pub dirty: bool,
    /// Owner mask accumulated through the `*_owned` entry points while
    /// the victim was resident (see [`owner_bit`]). Zero for caches that
    /// never use owned operations.
    pub owners: u32,
}

/// Bit a core contributes to a line's owner mask. Cores at or beyond the
/// mask width share the top bit, which degrades the mask to *conservative*
/// (extra sweeps, never missed ones) instead of wrong.
#[inline]
pub fn owner_bit(core: usize) -> u32 {
    1u32 << core.min(31)
}

const INVALID: u64 = u64::MAX;
/// Meta bit: the line holds modified data.
const DIRTY_BIT: u64 = 1 << 63;
/// Meta bit: installed by a prefetcher, not yet demand-touched.
const PF_BIT: u64 = 1 << 62;
/// Low 62 bits of meta: the last-touch LRU stamp.
const STAMP_MASK: u64 = PF_BIT - 1;

/// One way: the cached line's tag plus its packed metadata. 16-byte
/// aligned so a way never straddles a host cache line.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct Way {
    tag: u64,
    /// `DIRTY_BIT | PF_BIT | stamp` (see the mask constants).
    meta: u64,
}

const EMPTY_WAY: Way = Way { tag: INVALID, meta: 0 };

/// Memo of the most recent miss probe: the scan that
/// proved `line` absent also recorded where an insert of that line would
/// land. [`Cache::insert`] reuses the plan — skipping its own set scan —
/// iff `muts` still matches, i.e. provably nothing changed in between.
#[derive(Clone, Copy)]
struct MissPlan {
    line: u64,
    /// Flat index of the fill slot (first free way, or the LRU victim).
    slot: u32,
    /// The slot was free: filling it evicts nothing.
    free: bool,
    /// `Cache::muts` at plan time; any later mutation invalidates it.
    muts: u64,
}

/// Set-associative, write-back, allocate-on-miss cache.
pub struct Cache {
    sets: u64,
    ways: usize,
    set_mask: u64,
    arr: Vec<Way>,
    /// Per-slot owner masks, maintained only by the `*_owned` entry
    /// points. The engine uses them on the (inclusive) LLC to record
    /// which cores' private caches a line was ever filled into while this
    /// LLC entry existed, so back-invalidation can skip cores that
    /// provably never held the victim.
    owners: Vec<u32>,
    /// Per-set hint: way index of the most recently touched line.
    mru: Vec<u32>,
    /// Count of valid lines, maintained by `insert`/`invalidate` so
    /// `occupancy` is O(1) and diagnostics can't perturb hot-loop timing.
    valid: usize,
    clock: u64,
    /// Mutation counter guarding [`MissPlan`] validity. Bumped by every
    /// operation that changes tags, stamps, or flags.
    muts: u64,
    plan: Option<MissPlan>,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate().expect("invalid cache config");
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let n = (sets as usize) * ways;
        Cache {
            sets,
            ways,
            set_mask: sets - 1,
            arr: vec![EMPTY_WAY; n],
            owners: vec![0; n],
            mru: vec![0; sets as usize],
            valid: 0,
            clock: 0,
            muts: 0,
            plan: None,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    #[inline]
    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        let s = set * self.ways;
        s..s + self.ways
    }

    /// Looks the line up and, on a hit, refreshes its LRU stamp. Returns
    /// whether the line had been installed by a prefetcher and not yet
    /// touched by a demand access (the bit is cleared by this call).
    #[inline]
    pub fn access(&mut self, line: u64) -> Option<HitInfo> {
        let set = self.set_of(line);
        let base = set * self.ways;
        // MRU fast path: the last-touched way of this set.
        let m = base + self.mru[set] as usize;
        if self.arr[m].tag == line {
            return Some(self.touch(set, m));
        }
        match self.scan_planning(line) {
            Ok(i) => Some(self.touch(set, i)),
            Err(plan) => {
                // The miss scan already found where an insert would land;
                // remember it so the insert that typically follows can
                // skip rescanning the set.
                self.plan = Some(plan);
                None
            }
        }
    }

    /// [`Cache::access`] that, on a hit, also ORs `core`'s bit into the
    /// line's owner mask. Owner updates bump neither `muts` nor the LRU
    /// state beyond what `access` does: the mask affects no presence or
    /// victim decision, so outstanding [`MissPlan`]s stay exact.
    #[inline]
    pub fn access_owned(&mut self, line: u64, core: usize) -> Option<HitInfo> {
        let hit = self.access(line);
        if hit.is_some() {
            // `touch` just refreshed the MRU hint to the hit way.
            let set = self.set_of(line);
            let slot = set * self.ways + self.mru[set] as usize;
            self.owners[slot] |= owner_bit(core);
        }
        hit
    }

    #[inline]
    fn touch(&mut self, set: usize, slot: usize) -> HitInfo {
        self.clock += 1;
        self.muts += 1;
        let w = &mut self.arr[slot];
        let was_prefetched = w.meta & PF_BIT != 0;
        w.meta = (w.meta & DIRTY_BIT) | self.clock;
        self.mru[set] = (slot - set * self.ways) as u32;
        HitInfo { was_prefetched }
    }

    /// One pass over `line`'s set: `Ok(slot)` when present, otherwise the
    /// [`MissPlan`] a fresh insert of the line would follow (first free
    /// way, or the minimum-stamp LRU victim).
    #[inline]
    fn scan_planning(&self, line: u64) -> Result<usize, MissPlan> {
        let base = self.set_of(line) * self.ways;
        let mut free: Option<usize> = None;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + self.ways {
            let w = self.arr[i];
            if w.tag == line {
                return Ok(i);
            }
            if w.tag == INVALID {
                if free.is_none() {
                    free = Some(i);
                }
            } else if (w.meta & STAMP_MASK) < victim_stamp {
                victim_stamp = w.meta & STAMP_MASK;
                victim = i;
            }
        }
        Err(match free {
            Some(i) => MissPlan { line, slot: i as u32, free: true, muts: self.muts },
            None => MissPlan { line, slot: victim as u32, free: false, muts: self.muts },
        })
    }

    /// Non-updating probe: true if the line is present.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.slot_range(set).any(|i| self.arr[i].tag == line)
    }

    /// Presence probe that also records a [`MissPlan`] on a miss — for
    /// call sites where a miss is followed by an `insert` of the same
    /// line. Returns exactly what [`Cache::contains`] returns.
    pub fn probe(&mut self, line: u64) -> bool {
        match self.scan_planning(line) {
            Ok(_) => true,
            Err(plan) => {
                self.plan = Some(plan);
                false
            }
        }
    }

    /// [`Cache::probe`] that, on a hit, also ORs `core`'s bit into the
    /// line's owner mask (no LRU or `muts` effect — see
    /// [`Cache::access_owned`]).
    pub fn probe_owned(&mut self, line: u64, core: usize) -> bool {
        match self.scan_planning(line) {
            Ok(slot) => {
                self.owners[slot] |= owner_bit(core);
                true
            }
            Err(plan) => {
                self.plan = Some(plan);
                false
            }
        }
    }

    /// Marks a present line dirty (store hit). No-op if absent.
    ///
    /// Deliberately does not bump `muts`: the dirty bit affects neither
    /// presence nor LRU victim choice (stamp comparisons mask it out), and
    /// a plan-based insert reads the victim's dirty flag from the array at
    /// insert time — so outstanding [`MissPlan`]s remain exact.
    pub fn mark_dirty(&mut self, line: u64) {
        let set = self.set_of(line);
        let base = set * self.ways;
        let m = base + self.mru[set] as usize;
        if self.arr[m].tag == line {
            self.arr[m].meta |= DIRTY_BIT;
            return;
        }
        for i in base..base + self.ways {
            if self.arr[i].tag == line {
                self.arr[i].meta |= DIRTY_BIT;
                return;
            }
        }
    }

    /// Refreshes an already-present line in place during `insert`.
    #[inline]
    fn refresh(&mut self, slot: usize, dirty: bool, prefetched: bool, mask: u32) {
        let w = &mut self.arr[slot];
        let mut meta = (w.meta & (DIRTY_BIT | PF_BIT)) | self.clock;
        if dirty {
            meta |= DIRTY_BIT;
        }
        // A *demand* refresh clears a stale prefetch attribution: the bit
        // survives only if the line was prefetched and still is.
        if !prefetched {
            meta &= !PF_BIT;
        }
        w.meta = meta;
        self.owners[slot] |= mask;
    }

    /// Inserts a line, evicting the LRU way if the set is full. Returns the
    /// victim, if any. Inserting an already-present line refreshes it; a
    /// *demand* refresh (not `prefetched`) clears any stale prefetch bit —
    /// the line is no longer attributable to the prefetcher, so its next
    /// access must not count as a useful prefetch.
    pub fn insert(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.insert_mask(line, dirty, prefetched, 0)
    }

    /// [`Cache::insert`] that seeds the installed line's owner mask with
    /// `core`'s bit (a refresh ORs it in). The returned victim carries the
    /// owner mask it accumulated while resident.
    pub fn insert_owned(
        &mut self,
        line: u64,
        dirty: bool,
        prefetched: bool,
        core: usize,
    ) -> Option<Evicted> {
        self.insert_mask(line, dirty, prefetched, owner_bit(core))
    }

    fn insert_mask(&mut self, line: u64, dirty: bool, prefetched: bool, mask: u32) -> Option<Evicted> {
        let set = self.set_of(line);
        // Plan reuse: an earlier miss probe of this exact line, with no
        // mutation since (`muts` match), already proved absence and chose
        // the fill slot a fresh scan would choose. The victim's tag/dirty
        // flag are read from the array *now*, so intervening reads can't
        // go stale — there were no intervening writes by construction.
        if let Some(p) = self.plan.take() {
            if p.line == line && p.muts == self.muts {
                self.clock += 1;
                self.muts += 1;
                let slot = p.slot as usize;
                let evicted = if p.free {
                    self.valid += 1;
                    None
                } else {
                    let w = self.arr[slot];
                    Some(Evicted {
                        line: w.tag,
                        dirty: w.meta & DIRTY_BIT != 0,
                        owners: self.owners[slot],
                    })
                };
                self.fill(set, slot, line, dirty, prefetched, mask);
                return evicted;
            }
        }
        self.clock += 1;
        self.muts += 1;
        // One fused pass: presence, first free way, and LRU victim.
        match self.scan_planning(line) {
            Ok(i) => {
                self.refresh(i, dirty, prefetched, mask);
                self.mru[set] = (i - set * self.ways) as u32;
                None
            }
            Err(p) => {
                let slot = p.slot as usize;
                let evicted = if p.free {
                    self.valid += 1;
                    None
                } else {
                    let w = self.arr[slot];
                    Some(Evicted {
                        line: w.tag,
                        dirty: w.meta & DIRTY_BIT != 0,
                        owners: self.owners[slot],
                    })
                };
                self.fill(set, slot, line, dirty, prefetched, mask);
                evicted
            }
        }
    }

    #[inline]
    fn fill(&mut self, set: usize, slot: usize, line: u64, dirty: bool, prefetched: bool, mask: u32) {
        let mut meta = self.clock;
        if dirty {
            meta |= DIRTY_BIT;
        }
        if prefetched {
            meta |= PF_BIT;
        }
        self.arr[slot] = Way { tag: line, meta };
        self.owners[slot] = mask;
        self.mru[set] = (slot - set * self.ways) as u32;
    }

    /// Removes a line (inclusion back-invalidation). Returns whether it was
    /// present and dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        for i in self.slot_range(set) {
            if self.arr[i].tag == line {
                let was_dirty = self.arr[i].meta & DIRTY_BIT != 0;
                self.arr[i] = EMPTY_WAY;
                self.owners[i] = 0;
                self.valid -= 1;
                self.muts += 1;
                return Some(was_dirty);
            }
        }
        None
    }

    /// Number of valid lines currently cached (O(1); diagnostics).
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    /// The O(capacity) tag scan `occupancy` replaced; kept as the oracle
    /// the property test pins the counter against.
    #[cfg(test)]
    fn occupancy_scan(&self) -> usize {
        self.arr.iter().filter(|w| w.tag != INVALID).count()
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.arr.len()
    }

    /// Set count (for conflict-pattern construction).
    pub fn sets(&self) -> u64 {
        self.sets
    }
}

/// Result of a cache hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HitInfo {
    /// The line was installed by a prefetch and this is its first demand
    /// touch — i.e. the prefetch was *useful*.
    pub was_prefetched: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(&CacheConfig { bytes: 4 * 2 * 64, ways: 2, latency: 1 })
    }

    /// SplitMix64 — deterministic test RNG, no external crates.
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

    /// A line resident in the [`Model`].
    #[derive(Clone, Copy)]
    struct ModelLine {
        tag: u64,
        stamp: u64,
        dirty: bool,
        pf: bool,
        owners: u32,
    }

    /// True-LRU oracle for the cache's contract: per set, the resident
    /// lines in no particular order, a victim chosen by minimum stamp only
    /// when the set is full, and no hints, plans or slot layout.
    struct Model {
        sets: u64,
        ways: usize,
        clock: u64,
        lines: Vec<Vec<ModelLine>>,
    }

    impl Model {
        fn new(sets: u64, ways: usize) -> Self {
            Model { sets, ways, clock: 0, lines: vec![Vec::new(); sets as usize] }
        }

        fn set(&mut self, line: u64) -> &mut Vec<ModelLine> {
            &mut self.lines[(line % self.sets) as usize]
        }

        fn find(&mut self, line: u64) -> Option<&mut ModelLine> {
            self.set(line).iter_mut().find(|l| l.tag == line)
        }

        fn access(&mut self, line: u64) -> Option<HitInfo> {
            self.clock += 1;
            let clock = self.clock;
            let l = self.find(line)?;
            let was_prefetched = l.pf;
            l.stamp = clock;
            l.pf = false;
            Some(HitInfo { was_prefetched })
        }

        fn access_owned(&mut self, line: u64, core: usize) -> Option<HitInfo> {
            let hit = self.access(line);
            if let Some(l) = self.find(line) {
                l.owners |= owner_bit(core);
            }
            hit
        }

        fn contains(&self, line: u64) -> bool {
            self.lines[(line % self.sets) as usize].iter().any(|l| l.tag == line)
        }

        fn probe_owned(&mut self, line: u64, core: usize) -> bool {
            self.find(line).map(|l| l.owners |= owner_bit(core)).is_some()
        }

        fn mark_dirty(&mut self, line: u64) {
            if let Some(l) = self.find(line) {
                l.dirty = true;
            }
        }

        fn insert(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
            self.insert_mask(line, dirty, prefetched, 0)
        }

        fn insert_owned(&mut self, line: u64, dirty: bool, prefetched: bool, core: usize) -> Option<Evicted> {
            self.insert_mask(line, dirty, prefetched, owner_bit(core))
        }

        fn insert_mask(&mut self, line: u64, dirty: bool, pf: bool, owners: u32) -> Option<Evicted> {
            self.clock += 1;
            let (stamp, ways) = (self.clock, self.ways);
            if let Some(l) = self.find(line) {
                l.stamp = stamp;
                l.dirty |= dirty;
                l.pf &= pf;
                l.owners |= owners;
                return None;
            }
            let set = self.set(line);
            let mut evicted = None;
            if set.len() == ways {
                let lru = (0..ways).min_by_key(|&k| set[k].stamp).unwrap();
                let v = set.swap_remove(lru);
                evicted = Some(Evicted { line: v.tag, dirty: v.dirty, owners: v.owners });
            }
            set.push(ModelLine { tag: line, stamp, dirty, pf, owners });
            evicted
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let set = self.set(line);
            let k = set.iter().position(|l| l.tag == line)?;
            Some(set.swap_remove(k).dirty)
        }

        fn occupancy(&self) -> usize {
            self.lines.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(5).is_none());
        assert!(c.insert(5, false, false).is_none());
        assert!(c.access(5).is_some());
        assert!(c.contains(5));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, false, false);
        c.insert(4, false, false);
        c.access(0); // 0 is now MRU; 4 is LRU
        let ev = c.insert(8, false, false).unwrap();
        assert_eq!(ev.line, 4);
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.insert(0, true, false);
        c.insert(4, false, false);
        c.insert(8, false, false); // evicts 0 (LRU), which is dirty
        let ev = c.insert(12, false, false).unwrap();
        // first insert(8) evicted 0
        assert!(!c.contains(0));
        // ev is the eviction of 4 by 12
        assert_eq!(ev.line, 4);
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_eviction_flag() {
        let mut c = small();
        c.insert(0, true, false);
        c.insert(4, false, false);
        let ev = c.insert(8, false, false).unwrap();
        assert_eq!(ev, Evicted { line: 0, dirty: true, owners: 0 });
    }

    #[test]
    fn mark_dirty_then_evict() {
        let mut c = small();
        c.insert(0, false, false);
        c.mark_dirty(0);
        c.insert(4, false, false);
        let ev = c.insert(8, false, false).unwrap();
        assert_eq!(ev, Evicted { line: 0, dirty: true, owners: 0 });
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = small();
        c.insert(3, true, false);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn prefetch_bit_cleared_on_first_demand_touch() {
        let mut c = small();
        c.insert(7, false, true);
        let h1 = c.access(7).unwrap();
        assert!(h1.was_prefetched);
        let h2 = c.access(7).unwrap();
        assert!(!h2.was_prefetched);
    }

    /// Regression: a demand re-insert of a prefetch-installed line must
    /// clear the prefetch bit — the line is no longer the prefetcher's
    /// doing, so its next access is not a useful prefetch.
    #[test]
    fn demand_refresh_clears_stale_prefetch_bit() {
        let mut c = small();
        c.insert(7, false, true); // prefetch install
        c.insert(7, false, false); // demand refresh of the same line
        let h = c.access(7).unwrap();
        assert!(!h.was_prefetched, "demand refresh left the prefetch bit stale");
    }

    /// A prefetch refresh of a demand-installed line must not retroactively
    /// claim the line for the prefetcher either.
    #[test]
    fn prefetch_refresh_does_not_claim_demand_line() {
        let mut c = small();
        c.insert(7, false, false); // demand install
        c.insert(7, false, true); // prefetch touches the same line
        let h = c.access(7).unwrap();
        assert!(!h.was_prefetched);
    }

    #[test]
    fn reinsert_refreshes_and_merges_dirty() {
        let mut c = small();
        c.insert(0, false, false);
        c.insert(4, false, false);
        assert!(c.insert(0, true, false).is_none()); // refresh, now MRU + dirty
        let ev = c.insert(8, false, false).unwrap();
        assert_eq!(ev.line, 4); // 4 was LRU after refresh of 0
        // evicting 0 now reports dirty
        let ev2 = c.insert(12, false, false).unwrap();
        assert_eq!(ev2, Evicted { line: 0, dirty: true, owners: 0 });
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.capacity(), 8);
        c.insert(0, false, false);
        c.insert(1, false, false);
        assert_eq!(c.occupancy(), 2);
        c.invalidate(0);
        assert_eq!(c.occupancy(), 1);
    }

    /// Property: the O(1) occupancy counter equals the tag scan after
    /// every operation of a random workload.
    #[test]
    fn occupancy_counter_matches_scan_property() {
        let mut c = small();
        let mut rng = Rng(0xc0c4a7);
        for _ in 0..4000 {
            let line = rng.next() % 24; // 4 sets x up to 6 aliases
            match rng.next() % 4 {
                0 => {
                    c.access(line);
                }
                1 | 2 => {
                    c.insert(line, rng.next().is_multiple_of(2), rng.next().is_multiple_of(4));
                }
                _ => {
                    c.invalidate(line);
                }
            }
            assert_eq!(c.occupancy(), c.occupancy_scan(), "counter diverged from scan");
        }
    }

    /// Property: the MRU-hint, fused-insert and miss-plan shortcuts return
    /// exactly what the true-LRU model returns, operation by operation.
    #[test]
    fn operations_match_the_lru_model_property() {
        let mut slow = Model::new(4, 2);
        let mut quick = small();
        let mut rng = Rng(0x5eed);
        for step in 0..8000 {
            let line = rng.next() % 24;
            match rng.next() % 9 {
                0 | 1 => {
                    assert_eq!(slow.access(line), quick.access(line), "step {step}");
                }
                2 => {
                    let d = rng.next().is_multiple_of(2);
                    let p = rng.next().is_multiple_of(4);
                    assert_eq!(slow.insert(line, d, p), quick.insert(line, d, p), "step {step}");
                }
                3 => {
                    slow.mark_dirty(line);
                    quick.mark_dirty(line);
                }
                4 => {
                    assert_eq!(slow.contains(line), quick.probe(line), "step {step}");
                }
                5 => {
                    assert_eq!(slow.invalidate(line), quick.invalidate(line), "step {step}");
                }
                6 => {
                    let c = (rng.next() % 8) as usize;
                    assert_eq!(slow.access_owned(line, c), quick.access_owned(line, c), "step {step}");
                }
                7 => {
                    let c = (rng.next() % 8) as usize;
                    let d = rng.next().is_multiple_of(2);
                    assert_eq!(
                        slow.insert_owned(line, d, false, c),
                        quick.insert_owned(line, d, false, c),
                        "step {step}"
                    );
                }
                _ => {
                    let c = (rng.next() % 8) as usize;
                    assert_eq!(slow.probe_owned(line, c), quick.probe_owned(line, c), "step {step}");
                }
            }
            assert_eq!(slow.contains(line), quick.contains(line), "step {step}");
            assert_eq!(slow.occupancy(), quick.occupancy(), "step {step}");
        }
    }

    /// The miss-plan shortcut (probe miss, then insert of the same line
    /// skipping its scan) must evict exactly what the true-LRU model
    /// evicts, with and without intervening mutations that invalidate the
    /// plan.
    #[test]
    fn planned_insert_matches_the_lru_model() {
        let mut slow = Model::new(4, 2);
        let mut quick = small();
        let mut rng = Rng(0x9_1a4);
        for step in 0..6000 {
            let line = rng.next() % 24;
            assert_eq!(slow.contains(line), quick.probe(line), "step {step}");
            // Half the time, mutate between probe and insert so the plan
            // goes stale and the fallback scan must take over.
            if rng.next().is_multiple_of(2) {
                let other = rng.next() % 24;
                match rng.next() % 3 {
                    0 => {
                        assert_eq!(slow.access(other), quick.access(other), "step {step}");
                    }
                    1 => {
                        assert_eq!(
                            slow.insert(other, false, false),
                            quick.insert(other, false, false),
                            "step {step}"
                        );
                    }
                    _ => {
                        assert_eq!(slow.invalidate(other), quick.invalidate(other), "step {step}");
                    }
                }
            }
            let d = rng.next().is_multiple_of(2);
            assert_eq!(slow.insert(line, d, false), quick.insert(line, d, false), "step {step}");
            assert_eq!(slow.occupancy(), quick.occupancy(), "step {step}");
        }
    }

    /// The owner mask accumulates across owned hits, rides out to the
    /// eviction that removes the line, and resets on reinstall.
    #[test]
    fn owner_mask_accumulates_and_resets_per_residency() {
        let mut c = small();
        assert!(c.insert_owned(0, false, false, 1).is_none());
        assert!(c.access_owned(0, 3).is_some());
        assert!(c.probe_owned(0, 0));
        c.insert(4, false, false); // unowned sibling in the same set
        let ev = c.insert(8, false, false).unwrap(); // evicts LRU = 0
        assert_eq!(ev.line, 0);
        assert_eq!(ev.owners, owner_bit(1) | owner_bit(3) | owner_bit(0));
        // Reinstall under a different core: the old mask must not leak.
        c.insert_owned(0, false, false, 2); // evicts 4 (owners 0)
        c.insert(4, false, false);
        let ev2 = c.insert(12, false, false).unwrap();
        assert_eq!(ev2.line, 0);
        assert_eq!(ev2.owners, owner_bit(2));
    }

    /// Cores at or beyond the mask width saturate into the top bit —
    /// conservative sharing, never a lost owner.
    #[test]
    fn owner_bit_saturates_wide_core_indices() {
        assert_eq!(owner_bit(0), 1);
        assert_eq!(owner_bit(31), 1 << 31);
        assert_eq!(owner_bit(40), 1 << 31);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        // 4 sets: lines 0..4 land in distinct sets.
        for l in 0..4 {
            assert!(c.insert(l, false, false).is_none());
        }
        for l in 0..4 {
            assert!(c.contains(l));
        }
    }
}

//! Host-side measurement: CPU affinity, resource usage, and the scratch
//! directory every run works in.
//!
//! The workspace carries no `libc` crate, so the three C library calls
//! used here are declared directly, as `cochar_colocation::sweep::affinity`
//! does for its own pinning.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bits in a kernel `cpu_set_t` (glibc default: 1024 CPUs).
const SET_WORDS: usize = 1024 / 64;

/// A CPU affinity mask.
pub type CpuMask = [u64; SET_WORDS];

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// The calling thread's affinity mask.
pub fn affinity() -> Result<CpuMask, String> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(mask)
}

/// Sets the calling thread's affinity mask. Threads and processes it
/// starts afterwards inherit the mask.
pub fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// The lowest CPU of `mask` alone.
pub fn first_cpu(mask: &CpuMask) -> Option<CpuMask> {
    let cpu = (0..SET_WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; SET_WORDS];
    one[cpu / 64] |= 1 << (cpu % 64);
    Some(one)
}

fn rusage(who: i32) -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` matches the kernel's 64-bit `struct rusage` layout.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed: {}", std::io::Error::last_os_error());
    u
}

fn cpu_of(u: &RUsage) -> f64 {
    let us = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    us(&u.utime) + us(&u.stime)
}

/// User + system CPU seconds of this process and its waited-for children.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// File-name prefix of a worker's recorded peak in the scratch directory.
const WORKER_PEAK: &str = "worker-peak-";

/// This process's peak resident memory in KiB (`VmHWM`).
///
/// Not `getrusage`'s `ru_maxrss`: `cargo run` replaces itself with this
/// binary, and the kernel keeps both `ru_maxrss` values across `execve`,
/// so they would report cargo's footprint and the peak of every compiler
/// process the build waited for.
fn own_peak_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Records a worker process's peak where [`Scratch::peak_rss_mb`] finds
/// it: the run's scratch directory, which workers inherit as `TMPDIR`.
pub fn record_worker_peak() -> Result<(), String> {
    let path = std::env::temp_dir().join(format!("{WORKER_PEAK}{}", std::process::id()));
    std::fs::write(&path, own_peak_kib()?.to_string())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Wall and CPU seconds of one phase.
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, measuring its wall time and the CPU it and its children use.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (r, Timing { wall_s, cpu_s: cpu_seconds() - cpu0 })
}

/// The run's private directory under the working directory. Every store,
/// worker journal, and fabric scratch directory lands inside it (the
/// libraries' scratch directories follow `TMPDIR`), and it is removed
/// when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    /// Creates `base/run-<pid>` and points `TMPDIR` at it. Call before
    /// any thread starts: the environment is process-wide.
    pub fn create(base: &Path) -> Result<Scratch, String> {
        let root = base.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        std::env::set_var("TMPDIR", &root);
        Ok(Scratch { root, next: AtomicUsize::new(0) })
    }

    /// Peak resident memory in MiB: this process's or its largest
    /// worker's.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kib = own_peak_kib()?;
        let entries = std::fs::read_dir(&self.root).map_err(|e| e.to_string())?;
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(WORKER_PEAK) {
                let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
                kib = kib.max(text.parse().map_err(|_| format!("bad worker peak {text:?}"))?);
            }
        }
        Ok(kib as f64 / 1024.0)
    }

    /// A fresh, not yet existing directory path inside the scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        self.root.join(format!("{tag}-{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

//! What the benchmark reads about its own process, and its private
//! working directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time this process's main thread spent on a CPU and waiting on a run
/// queue, in seconds (`/proc/self/schedstat`). A large wait says the host
/// was busy while the benchmark ran.
pub fn schedstat() -> Option<(f64, f64)> {
    let text = fs::read_to_string("/proc/self/schedstat").ok()?;
    let mut it = text.split_whitespace();
    let cpu: f64 = it.next()?.parse().ok()?;
    let wait: f64 = it.next()?.parse().ok()?;
    Some((cpu / 1e9, wait / 1e9))
}

/// The host's CPU time counters from the first line of `/proc/stat`, in
/// clock ticks: `(total, steal)`. Between two readings, the share of
/// steal says how much of the machine's time its hypervisor gave to
/// other guests.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may use. Returns that CPU and how many
/// CPUs it could use before.
///
/// On a small shared VM, a thread woken on another vCPU waits for the
/// hypervisor to run that vCPU, and that wait swings with the host's
/// load. One CPU turns every hand-off (a compile worker, a simulator
/// worker, a daemon connection thread) into a context switch on the same
/// vCPU. `std::thread::available_parallelism` then reports 1, so the
/// session's and the simulator's worker pools run one thread.
pub fn pin_to_one_cpu() -> io::Result<(usize, usize)> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let allowed: Vec<usize> = (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    let &cpu = allowed
        .last()
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t` of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((cpu, allowed.len()))
}

/// A directory removed with everything in it when dropped — also when a
/// check fails or a panic unwinds.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `<base>/work-<pid>`, the run's private working directory,
    /// replacing a leftover of the same name.
    pub fn work_dir(base: &Path) -> io::Result<Scratch> {
        let path = base.join(format!("work-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.0.join(name);
        if p.exists() {
            fs::remove_dir_all(&p)?;
        }
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

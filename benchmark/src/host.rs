//! Host facts and control: one-CPU pinning, the thread and child
//! census, peak RSS, and the SIGKILL the respawn probe sends.
//!
//! Linux only, through `/proc` and three declared libc calls (the
//! same way `aalign-shard` declares `kill(2)`); std links libc already.

use std::io;

/// 1 024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// CPUs this process may run on.
pub fn affinity() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pin this thread — and so every thread and child started after it —
/// to one CPU: the one it is running on, which the scheduler just
/// judged free enough. Returns the CPUs allowed before and the CPU
/// chosen.
///
/// With a second CPU, threads and shard children overlap by however
/// much of that CPU the host grants at the moment, and on a shared
/// host that share comes and goes between runs.
pub fn pin_to_one_cpu() -> io::Result<(Vec<usize>, usize)> {
    let before = affinity()?;
    // SAFETY: no arguments; returns the current CPU or -1.
    let current = usize::try_from(unsafe { sched_getcpu() }).ok();
    let cpu = current
        .filter(|cpu| before.contains(cpu))
        .or_else(|| before.first().copied())
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((before, cpu))
}

/// SIGKILL a shard child (the respawn probe).
pub fn kill9(pid: u32) {
    let pid = i32::try_from(pid).expect("a pid fits i32");
    // SAFETY: kill(2) with its documented signature, aimed at a child
    // the supervisor under test spawned; a stale pid returns ESRCH,
    // which is ignored.
    unsafe {
        let _ = kill(pid, 9);
    }
}

fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB of this process (`None`) or a
/// child; 0 when the process is gone.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    status_field(pid, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_field(None, "Threads:").unwrap_or(0)
}

/// Live child processes of this process: every `/proc/<pid>/stat`
/// whose parent field names it.
pub fn children() -> u64 {
    let me = std::process::id().to_string();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return 0;
    };
    procs
        .flatten()
        .filter_map(|entry| std::fs::read_to_string(entry.path().join("stat")).ok())
        .filter(|stat| {
            // "pid (comm) state ppid …"; comm may itself hold ')' or ' '.
            let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
            after_comm.split_whitespace().nth(1) == Some(me.as_str())
        })
        .count() as u64
}

/// One tick of `/proc/stat`: Linux reports CPU times in units of
/// 1/`USER_HZ` s, and `USER_HZ` is 100 on every architecture it runs on.
const STEAL_TICK_MS: f64 = 10.0;

/// Time the hypervisor ran something else while `cpu` had work, in
/// ticks since boot: the `steal` column of `/proc/stat`.
fn steal_ticks(cpu: usize) -> u64 {
    let key = format!("cpu{cpu} ");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(&key))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Reads how far one CPU's steal counter moved between laps.
#[derive(Debug)]
pub struct StealWatch {
    cpu: usize,
    ticks: u64,
}

impl StealWatch {
    pub fn start(cpu: usize) -> Self {
        Self {
            cpu,
            ticks: steal_ticks(cpu),
        }
    }

    /// Milliseconds stolen from the CPU since `start` or the last lap.
    pub fn lap_ms(&mut self) -> f64 {
        let now = steal_ticks(self.cpu);
        let stolen = now.saturating_sub(self.ticks) as f64 * STEAL_TICK_MS;
        self.ticks = now;
        stolen
    }
}

/// Logical CPUs the host has, whatever this process may use.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // Runs on its own test thread, so the pin does not leak.
        std::thread::spawn(|| {
            let (before, cpu) = pin_to_one_cpu().unwrap();
            assert!(before.contains(&cpu));
            assert_eq!(affinity().unwrap(), vec![cpu]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn census_sees_this_process() {
        assert!(threads() >= 1);
        assert!(peak_rss_mib(None) > 0.0);
        assert!(nproc() >= 1);
    }
}

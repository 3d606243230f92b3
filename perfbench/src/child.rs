//! Child processes: building and locating the `ffmr` binary under
//! test, running one job to completion under a time-out, and reading a
//! process's memory and CPU clocks from `/proc`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A `maxflow` job that has not exited by now is a failed operation.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The checkout this benchmark was built in: the parent of its package
/// directory. The `ffmr` under test is built from the sources there.
fn checkout_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package directory has a parent")
}

/// Cargo's target directory for the checkout's root workspace:
/// `CARGO_TARGET_DIR` when set (a relative one is taken from the
/// checkout root, where the driver runs), else `target` there. Scratch
/// files go under `<target>/perf/`.
pub fn target_dir() -> PathBuf {
    checkout_root().join(
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from),
    )
}

/// Builds the shipped `ffmr` binary from the checkout's sources (a no-op
/// when it is current) and returns its path.
pub fn build_ffmr() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "ffmr",
        ])
        .current_dir(checkout_root())
        .env("CARGO_TARGET_DIR", target_dir())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin ffmr` failed: {status}"
        ));
    }
    let path = target_dir().join("release").join("ffmr");
    if !path.is_file() {
        return Err(format!("no ffmr binary at {}", path.display()));
    }
    Ok(path)
}

/// Kills and reaps its process when dropped, so a panic or an early
/// return never leaves an `ffmr serve`, `maxflow` or `worker` behind.
/// (`ffmr worker` grandchildren exit on their own once the driver's
/// socket closes.)
#[derive(Debug)]
pub struct Guard(pub Child);

impl Drop for Guard {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A set of CPUs, as `sched_setaffinity(2)` takes it (`cpu_set_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    pub fn of(cpus: &[usize]) -> Self {
        let mut set = Self([0; 16]);
        for &cpu in cpus {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        set
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// The highest-numbered CPU alone and the others; `None` for fewer
    /// than two CPUs.
    pub fn split_last(&self) -> Option<(Self, Self)> {
        let cpus = self.cpus();
        let (last, others) = cpus.split_last().filter(|(_, others)| !others.is_empty())?;
        Some((Self::of(&[*last]), Self::of(others)))
    }

    /// The CPUs the calling thread may run on; `None` off Linux.
    pub fn allowed() -> Option<Self> {
        #[cfg(target_os = "linux")]
        {
            let mut set = Self([0; 16]);
            // SAFETY: the mask is a live buffer of the size passed.
            let status =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
            (status == 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Confines the calling thread, and every thread it starts from now
    /// on, to the set. A refusal is ignored: the run is then as steady
    /// as the scheduler's placement, not wrong.
    pub fn confine_this_thread(&self) {
        #[cfg(target_os = "linux")]
        // SAFETY: the mask is a live buffer of the size passed.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr());
        }
    }

    /// Confines the process `command` will start, with all its threads,
    /// to the set.
    pub fn confine(self, command: &mut Command) {
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::process::CommandExt;
            // SAFETY: between fork and exec the closure makes one system
            // call on a mask it owns; it allocates nothing and takes no lock.
            unsafe {
                command.pre_exec(move || {
                    sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr());
                    Ok(())
                });
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = command;
    }
}

/// The CPU of the program under test (the highest-numbered this process
/// may use) and the others, for whatever talks to it; `None` on a
/// single CPU or off Linux, where nothing is confined.
///
/// Left to the scheduler, the threads of a daemon or of a one-thread
/// batch job settle either all on one of this host's two virtual CPUs
/// or spread over both, stay so for the life of the process, and spread
/// they pay for waking a halted virtual CPU at every hand-over: the same
/// commit read `op_p95_ms` 57 or 76 on `serve-cold`, and an FF5 job
/// took 1.2 s or 1.9 s, depending on what ran before the process
/// started. One CPU is the same placement every time.
pub fn cpu_split() -> Option<(CpuSet, CpuSet)> {
    static SPLIT: OnceLock<Option<(CpuSet, CpuSet)>> = OnceLock::new();
    *SPLIT.get_or_init(|| CpuSet::allowed()?.split_last())
}

/// What one finished (or killed) job left behind.
#[derive(Debug)]
pub struct JobRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit status 0 within the time-out.
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    /// Peak resident set (`VmHWM`) of the job's own process, sampled at
    /// 20 Hz while it ran; `None` where `/proc` is absent.
    pub peak_rss_kib: Option<u64>,
}

/// Runs `command` to completion, output captured in `scratch`. The exit
/// is polled every 2 ms (an error of under 0.1 % on a job of seconds);
/// every 25th poll also reads the high-water mark of its memory, which
/// disappears from `/proc` the moment the process exits.
pub fn run_job(command: &mut Command, scratch: &Path) -> Result<JobRun, String> {
    let out_path = scratch.join("job.stdout");
    let err_path = scratch.join("job.stderr");
    let create = |p: &Path| {
        std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
    };
    command
        .stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    let started = Instant::now();
    let mut child = Guard(
        command
            .spawn()
            .map_err(|e| format!("cannot spawn {command:?}: {e}"))?,
    );
    let pid = child.0.id();
    let mut peak_rss_kib = None;
    let mut polls = 0u32;
    let status = loop {
        match child.0.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) => {}
            Err(e) => return Err(format!("cannot wait for job: {e}")),
        }
        if started.elapsed() > JOB_TIMEOUT {
            break None; // the guard kills it
        }
        if polls.is_multiple_of(25) {
            peak_rss_kib = proc_status_kib(pid, "VmHWM").max(peak_rss_kib);
        }
        polls += 1;
        std::thread::sleep(Duration::from_millis(2));
    };
    let wall = started.elapsed();
    drop(child);
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    Ok(JobRun {
        wall,
        ok: status.is_some_and(|s| s.success()),
        stdout: read(&out_path),
        stderr: read(&err_path),
        peak_rss_kib,
    })
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM`.
pub fn proc_status_kib(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(field)?
            .strip_prefix(':')?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// User plus system CPU time the process has used, in clock ticks
/// (`/proc/<pid>/stat` fields 14 and 15; 100 ticks per second on Linux).
pub fn proc_cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after ")".
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Ticks per second of [`proc_cpu_ticks`] (`USER_HZ`, fixed at 100 on
/// every Linux ABI).
pub const CPU_TICKS_PER_SECOND: f64 = 100.0;

/// The `N` of the `max flow = N (...)` line `ffmr maxflow` prints.
pub fn parse_max_flow(stdout: &str) -> Option<i64> {
    stdout.lines().find_map(|line| {
        line.strip_prefix("max flow = ")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_result_line() {
        let out = "attached super terminals over 64 high-degree vertices each (s = 1, t = 2)\n\
                   max flow = 3494 (9 rounds, 5.8 simulated min on 20 nodes)\n";
        assert_eq!(parse_max_flow(out), Some(3494));
        assert_eq!(parse_max_flow("error: nope\n"), None);
    }

    #[test]
    fn cpu_sets_split_off_their_last_cpu() {
        let set = CpuSet::of(&[0, 3, 70]);
        assert_eq!(set.cpus(), [0, 3, 70]);
        let (last, others) = set.split_last().unwrap();
        assert_eq!(last.cpus(), [70]);
        assert_eq!(others.cpus(), [0, 3]);
        assert_eq!(CpuSet::of(&[5]).split_last(), None);
        if cfg!(target_os = "linux") {
            assert!(!CpuSet::allowed().unwrap().cpus().is_empty());
        }
    }

    #[test]
    fn reads_own_proc_entries() {
        let pid = std::process::id();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(proc_status_kib(pid, "VmHWM").unwrap() > 0);
            assert!(proc_cpu_ticks(pid).is_some());
        }
    }
}

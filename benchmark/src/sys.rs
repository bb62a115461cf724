//! What the harness reads from the operating system: CPU time, peak
//! resident memory and the host description for provenance.

use std::fs;
use std::process::Stdio;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct sched_param` of Linux.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// User + system CPU seconds of this process, all threads, so far. Read
/// from the process CPU clock: `/proc/self/stat` counts in ticks of 10 ms,
/// too coarse to charge CPU time to a pass of a few milliseconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout 64-bit
    // Linux declares, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`: in a guest, `stolen` is time a virtual CPU
/// was ready to run and the host ran something else.
pub fn machine_ticks() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is part
    // of user time already.
    (
        ticks.get(7).copied().unwrap_or(0.0),
        ticks.iter().take(8).sum(),
    )
}

/// Keeps every virtual CPU of the guest from going idle while a run
/// measures: one child process per CPU, pinned to it, spinning under
/// `SCHED_IDLE`, which runs only when nothing else wants the CPU and gives
/// way at once when something does.
///
/// The reference host is a small guest on a shared machine. A virtual CPU
/// that halts must be scheduled again by the host before the guest can use
/// it, and the host takes from microseconds to milliseconds over that,
/// depending on its other tenants. A closed loop of callers and server
/// threads halts and wakes thousands of times a second, so its timings
/// followed the host's load and not the program (README.md, "Idle shield").
/// The children are processes of their own so that their CPU time is not
/// this process's.
pub struct IdleShield {
    children: Vec<std::process::Child>,
}

impl IdleShield {
    pub fn start() -> std::io::Result<IdleShield> {
        let exe = std::env::current_exe()?;
        let mut shield = IdleShield {
            children: Vec::new(),
        };
        for cpu in 0..nproc() {
            // No handle of this process's is left with a spinner: whoever
            // reads the run's output to its end does not wait for one.
            let child = std::process::Command::new(&exe)
                .args(["spin", &cpu.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            shield.children.push(child);
        }
        Ok(shield)
    }
}

impl Drop for IdleShield {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Errors mean the child has ended already.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What a child of [`IdleShield`] runs: spins on `cpu` at idle priority
/// until its parent is gone, however the parent went.
pub fn spin(cpu: usize) -> ! {
    let parent = std::os::unix::process::parent_id();
    let mask = 1u64 << (cpu % 64);
    // SAFETY: both calls read the live, correctly laid out values passed
    // and change only this process's scheduling. A refusal leaves an
    // unpinned or normal-priority spinner, which still spins.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 });
    }
    let mut x = 0u64;
    while std::os::unix::process::parent_id() == parent {
        for _ in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
    std::process::exit(0)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        let before = cpu_seconds();
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 80 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before, "80 ms of spinning cost no CPU time");
        assert!(!cpu_model().is_empty());
    }
}

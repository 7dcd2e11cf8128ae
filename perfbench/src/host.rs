//! Host-side readings from `/proc`: process CPU time, peak resident set
//! size, load average and processor count.

/// User and system CPU time of the whole process (all threads, including
/// exited sim-threads), in milliseconds, from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl CpuTimes {
    /// Reads the current totals. Zero on a host without `/proc`.
    pub fn now() -> CpuTimes {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // The command name (field 2) may contain spaces; count fields from
        // its closing parenthesis. utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(sys)) => CpuTimes {
                user_ms: user * 1e3 / CLOCK_TICKS_PER_S,
                sys_ms: sys * 1e3 / CLOCK_TICKS_PER_S,
            },
            _ => CpuTimes::default(),
        }
    }

    /// Both together.
    pub fn total_ms(self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// Time spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times; 100 on every Linux
/// architecture the simulator builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of the process in MiB (`VmHWM`), or zero where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One-minute load average, or zero where `/proc/loadavg` is unavailable.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the CPU it is running on now; returns that CPU, or `None` if the kernel
/// refused.
///
/// The engine and its sim-threads run in lock-step, so one CPU loses no
/// parallelism. It keeps each engine ↔ sim-thread handoff on one CPU: a
/// handoff between CPUs waits for the sleeping CPU to wake, a delay that
/// swings several-fold with load elsewhere on the host (on a virtual
/// machine, with the hypervisor's scheduling of its virtual CPUs).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports which CPU
    // the calling thread runs on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is a Linux facility; elsewhere the process stays unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Microseconds per round trip between this thread and a helper thread
/// over std `sync_channel`s, averaged over `rounds` round trips.
///
/// This is the host's speed at one OS-thread handoff, measured with no
/// simulator code. Called from a pinned thread, the helper inherits the
/// pin, so the handoff stays on one CPU like the engine ↔ sim-thread
/// handoffs of a run. Timing a run in units of this round trip, measured
/// right before and after it, cancels the drift of the host CPU's own
/// speed, which on a shared virtual machine moves wall and CPU times by
/// tens of percent within minutes.
pub fn handoff_round_trip_us(rounds: u32) -> f64 {
    use std::sync::mpsc::sync_channel;
    let (to_helper, helper_rx) = sync_channel::<u32>(1);
    let (helper_tx, from_helper) = sync_channel::<u32>(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = helper_rx.recv() {
                if helper_tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let start = std::time::Instant::now();
        let mut v = 0;
        for _ in 0..rounds {
            to_helper
                .send(v)
                .expect("the helper runs until the sender drops");
            v = from_helper
                .recv()
                .expect("the helper answers every message");
        }
        let elapsed = start.elapsed();
        drop(to_helper);
        assert_eq!(v, rounds, "every round trip incremented the value once");
        elapsed.as_secs_f64() * 1e6 / f64::from(rounds)
    })
}

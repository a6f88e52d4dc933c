//! Wall and process-CPU timestamps.
//!
//! CPU time is `CLOCK_PROCESS_CPUTIME_ID`: all threads of the process,
//! so the live path's router and shard threads count towards
//! `cpu_ns_per_record`.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a valid clock id on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and CPU time of one measured stretch, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Elapsed wall time.
    pub wall_ns: u64,
    /// Process CPU time, all threads.
    pub cpu_ns: u64,
}

impl Cost {
    /// Field-wise sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            wall_ns: self.wall_ns + other.wall_ns,
            cpu_ns: self.cpu_ns + other.cpu_ns,
        }
    }
}

/// A start point for a [`Cost`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: u64,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu_ns(),
        }
    }

    /// Cost from this stamp until now.
    pub fn elapsed(&self) -> Cost {
        let cpu = process_cpu_ns();
        Cost {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: cpu.saturating_sub(self.cpu),
        }
    }
}

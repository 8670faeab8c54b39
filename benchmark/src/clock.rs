//! The benchmark's clock: process CPU time next to wall time.
//!
//! End-to-end times are CPU time of the whole process (all threads, user +
//! system). On a shared virtual machine the host can take a vCPU away for
//! a while ("steal"); wall time then grows with the neighbours' load, but
//! CPU time does not. One repetition measured 5.6–10.8 s of wall time and
//! 7.97–8.54 s of CPU time across identical runs on a 2-vCPU VM.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time this process has used so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes only the timespec it is handed, which
    // lives on this stack frame and has the C layout it expects.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A start point on both clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: u64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// CPU nanoseconds since the stamp.
    pub fn cpu(&self) -> u64 {
        cpu_ns().saturating_sub(self.cpu)
    }

    /// Wall nanoseconds since the stamp.
    pub fn wall(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let t = Stamp::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let busy = t.cpu();
        assert!(busy > 0);
        let t = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(t.wall() >= 50_000_000);
        assert!(t.cpu() < 25_000_000, "sleeping used {} ns of CPU", t.cpu());
    }
}

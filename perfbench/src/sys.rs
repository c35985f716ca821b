//! Process CPU time, via `getrusage(2)`.
//!
//! `std` links libc already, so one `extern "C"` declaration is all it
//! takes; the layout below is Linux's `struct rusage` on 64-bit targets.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` and the thirteen other counters, unused here.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the kernel's
    // layout on 64-bit Linux (two timevals then fourteen longs), and
    // RUSAGE_SELF is a valid `who`; the call writes only inside `u`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    u
}

/// User plus system CPU time of every thread of this process so far.
pub fn cpu_time() -> Duration {
    let u = usage();
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&u.ru_utime) + micros(&u.ru_stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_time() > before, "{x}");
    }
}

//! The crate's two foreign calls, to the C library `std` already links:
//! CPU affinity and the process CPU clock. The standard library offers
//! neither, and both decide whether the numbers repeat.

#![allow(unsafe_code)]

/// Words in the CPU mask handed to the kernel: room for 1024 CPUs, the
/// size of glibc's own `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_pointer_width = "64")]
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Restricts this thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it is allowed on (interrupts usually land on the
/// lowest). Returns the CPU, or `None` when the platform or the kernel
/// refuses, in which case the run goes ahead unpinned.
///
/// Every workload is a single logical thread of control: one client in a
/// closed loop, a daemon that answers it, a router that calls its peers
/// one after the other. No two threads ever have work at the same time,
/// so one CPU loses nothing — but left free, the scheduler sometimes puts
/// client and daemon on different virtual CPUs, and every hand-over then
/// pays for waking a halted vCPU. On the 2-vCPU VM this was written on
/// that flipped `served-zipf`'s median between 60 µs and 143 µs for
/// minutes at a time; pinned it stays at 58–85 µs.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
    // bytes, which is what the call is told; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, &w)| w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut only = [0u64; MASK_WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of exactly `bytes` bytes that the
    // call only reads.
    if unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

/// No affinity control off Linux: the run goes ahead unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// CPU time consumed so far by every thread of this process, living or
/// finished, in nanoseconds. The scheduler's own run-time sum, read
/// exactly — `/proc/self/stat` reports the same quantity in 10 ms ticks,
/// too coarse to compare chunks of a pass. Falls back to that reader
/// where the clock is not available.
pub fn process_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` with the
        // layout of the 64-bit Linux ABI, which the cfg above selects.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    crate::stats::process_cpu_us().unwrap_or(0) * 1_000
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        let cpu = pin_to_one_cpu().expect("affinity calls work on Linux");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap()
            .trim();
        assert_eq!(list, cpu.to_string());
    }

    #[test]
    fn cpu_clock_advances_with_work_and_agrees_with_proc() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let spent = process_cpu_ns() - before;
        assert!(spent > 1_000_000, "20M multiplies took {spent} ns of CPU");
        // Same quantity as the tick-based reader, within a few ticks.
        let ticks_ns = crate::stats::process_cpu_us().unwrap() * 1_000;
        assert!(process_cpu_ns().abs_diff(ticks_ns) < 250_000_000);
    }
}

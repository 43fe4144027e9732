//! The two things the harness needs from the OS that std does not offer:
//! confining a measuring child to one CPU, and the process's CPU clock.
//! std links the platform's libc, which has both; every `unsafe` block of
//! the harness is in this file.
//!
//! **Why one CPU.** A simulated cluster is eight or more host threads, built
//! afresh in every rep. On the two shared vCPUs the benchmark is given,
//! where those threads land decides a rep's host time more than the program
//! does: the guest kernel balances load lazily (two threads spawned together
//! share a CPU for hundreds of milliseconds) and the second vCPU is at times
//! a neighbour's. On one CPU the threads take turns, host time is the
//! simulator's total work plus its thread hand-offs, and quiet reps agree to
//! 1–2 %. Host parallel speed-up is not measured: it is not what this
//! repository reproduces (simulated time is), and two shared vCPUs could not
//! show it.

use std::ffi::{c_int, c_long, c_ulong};

/// glibc's `cpu_set_t`: 1024 CPUs.
const MAX_CPUS: usize = 1024;
const WORD_BITS: usize = c_ulong::BITS as usize;
type CpuSet = [c_ulong; MAX_CPUS / WORD_BITS];

/// `struct timespec` of the 64-bit Linux targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}
const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "Timespec above is the 64-bit Linux layout"
);

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

fn os_error(call: &str) -> String {
    format!("{call}: {}", std::io::Error::last_os_error())
}

/// The highest CPU of `set`: CPU 0 takes most interrupts and housekeeping.
fn highest(set: &CpuSet) -> Option<usize> {
    (0..MAX_CPUS)
        .rev()
        .find(|cpu| set[cpu / WORD_BITS] >> (cpu % WORD_BITS) & 1 == 1)
}

/// Pin the calling thread, and so every thread spawned after this, to the
/// highest CPU it is allowed on. Call before the first thread is spawned.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; MAX_CPUS / WORD_BITS];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `cpusetsize` bytes, the size of the array the pointer is to.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let cpu = highest(&allowed).ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one: CpuSet = [0; MAX_CPUS / WORD_BITS];
    one[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
    // SAFETY: as above; the kernel only reads `cpusetsize` bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(cpu)
}

/// User + system CPU seconds of this process so far, threads that have
/// exited included, at the scheduler's nanosecond resolution
/// (`/proc/self/stat` counts in 10 ms ticks: 3 % of a short rep).
pub fn process_cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of this target.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(os_error("clock_gettime"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_set_bit_is_found_across_words() {
        let mut set: CpuSet = [0; MAX_CPUS / WORD_BITS];
        assert_eq!(highest(&set), None);
        set[0] = 0b11;
        assert_eq!(highest(&set), Some(1));
        set[1] = 1;
        assert_eq!(highest(&set), Some(WORD_BITS));
    }

    #[test]
    fn a_pinned_thread_and_its_children_are_allowed_one_cpu() {
        fn allowed_list() -> String {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            line.trim().to_string()
        }
        // In a thread of its own: the other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap().to_string();
            assert_eq!(allowed_list(), cpu);
            assert_eq!(std::thread::spawn(allowed_list).join().unwrap(), cpu);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_cpu_clock_advances_with_work_and_counts_exited_threads() {
        let spin = || {
            let t = std::time::Instant::now();
            let mut x = 1u64;
            while t.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
            }
        };
        let before = process_cpu_seconds().unwrap();
        std::thread::spawn(spin).join().unwrap();
        let spent = process_cpu_seconds().unwrap() - before;
        // The thread shares its CPU with the other tests: some, not 30 ms.
        assert!(spent > 0.001 && spent < 10.0, "{spent}");
    }
}

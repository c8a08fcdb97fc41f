//! The two things the harness asks the kernel for directly: pinning the
//! calling thread to one CPU, and the process's peak resident set size.
//!
//! Why pin: on the 2-vCPU reference host an unpinned pingpong is bimodal: ~12 us per
//! round trip when the scheduler happens to put both rank threads on one
//! CPU (a wake is a context switch) and ~55 us when it spreads them (a wake
//! is an inter-processor interrupt to a halted vCPU), and the placement
//! sticks for a whole run. Pinning each rank decides that once, the way MPI
//! launchers bind ranks to cores.

/// Bits in the kernel's `cpu_set_t`.
const SET_BITS: usize = 1024;
type CpuSet = [u64; SET_BITS / 64];

extern "C" {
    // `int sched_getaffinity(pid_t pid, size_t cpusetsize, cpu_set_t *mask)`
    // and its setter, from the C library std already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The most memory this process ever held resident, in MiB: `VmHWM` of
/// `/proc/self/status`. Not `getrusage`: `ru_maxrss` survives `exec`, so it
/// would report the launcher's footprint (`cargo run`: 26 MiB) for every
/// workload smaller than that.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// CPUs the calling thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; SET_BITS / 64];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_BITS)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to the `slot`-th CPU it is allowed on (the last
/// one when there are fewer). Returns the CPU, or `None` when the kernel
/// refuses or there is a single CPU anyway — the run then goes on unpinned.
pub fn pin(slot: usize) -> Option<usize> {
    let cpus = allowed();
    if cpus.len() < 2 {
        return None;
    }
    let cpu = cpus[slot.min(cpus.len() - 1)];
    let mut set: CpuSet = [0; SET_BITS / 64];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_plausible_and_sees_growth() {
        let before = peak_rss_mib();
        assert!(before > 0.5 && before < 1e6, "{before} MiB");
        let block = std::hint::black_box(vec![1u8; 32 << 20]);
        let after = peak_rss_mib();
        drop(block);
        assert!(after >= before + 16.0, "{before} -> {after} MiB");
        // The kernel batches RSS accounting per thread, so allow a little slack.
        assert!(peak_rss_mib() >= after - 1.0);
    }

    #[test]
    fn pins_a_scratch_thread_inside_the_allowed_set() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's threads must stay where they are.
        let before = allowed();
        let got = std::thread::spawn(|| (pin(1), allowed()))
            .join()
            .expect("scratch thread panicked");
        match got {
            (Some(cpu), now) => {
                assert!(before.contains(&cpu));
                assert_eq!(now, vec![cpu]);
            }
            (None, now) => assert_eq!(now, before),
        }
        assert_eq!(allowed(), before);
    }
}

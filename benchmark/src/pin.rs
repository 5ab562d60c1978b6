//! One processor for the whole run. The reference box is a two-processor
//! VM on a shared host: waking a thread on the other processor costs tens
//! of microseconds of hypervisor exits and varies twofold from second to
//! second (`memory-reads` spread 17–25 % over ten runs of the same code,
//! and ran 3.4× slower than on one processor), and a busy second
//! processor slows the first by a fifth. Pinned, cluster and generator
//! take turns on one processor and the numbers are the program's own
//! processor and fsync time. The cost: a gain from running servers in
//! parallel does not show here.

use std::sync::OnceLock;

static MACHINE_CPUS: OnceLock<usize> = OnceLock::new();

/// Processors the run was given, as counted before pinning; sizes the
/// generator (`G = min(nproc, 4)`).
pub fn machine_cpus() -> usize {
    *MACHINE_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins this process — and every thread it spawns from now on — to the
/// highest-numbered processor it may run on (the lowest serves the
/// disk's interrupts here: durable puts measured 0.68 ms pinned to it,
/// 0.55 ms pinned to the other). Returns that processor, or `None` where
/// the affinity calls are missing or refused; the run then floats.
pub fn pin_to_one_cpu() -> Option<usize> {
    machine_cpus();
    imp::pin()
}

#[cfg(target_os = "linux")]
mod imp {
    const WORDS: usize = 16; // 1024 processors

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn pin() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread,
        // and no other thread exists yet.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is `size` readable bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin() -> Option<usize> {
        None
    }
}

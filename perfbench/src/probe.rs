//! Keeping the host's speed out of the figures.
//!
//! On a shared virtual machine the CPU clock still runs slower when the
//! host is busy: the same code takes 1.5–1.8× the CPU time during a
//! neighbour's spell, which lasts from seconds to minutes. Two things
//! take that out of the reported figures:
//!
//! - [`pin_to_current_cpu`]: the process and every thread it starts run
//!   on one CPU, so the workload and the probe below share one vCPU and
//!   the fleet's threads never bounce cache lines between two.
//! - [`Probe`]: a fixed kernel owned by the benchmark, not the program,
//!   run on the driving thread between operations. The program's CPU
//!   time in an operation is rescaled by the probe's CPU time around
//!   it, into *reference seconds*: the time the operation would take on
//!   a host where the probe takes [`REFERENCE_S`]. A change to the
//!   program moves the rescaled figures; a change of the host's speed
//!   moves the probe with the program and cancels out.
//!
//! The kernel builds and drops an ordered map of short formatted
//! strings — allocation, formatting, comparisons and pointer chasing,
//! like the interpreter, engine and fleet code it stands in for. On the
//! host in `README.md` its CPU time tracked scan-collect's rate with a
//! correlation of 0.85; pure-ALU and pointer-chase kernels tracked it at
//! 0.3–0.4.

use crate::clock;
use crate::stats::probe_scale;
use std::collections::BTreeMap;

/// CPU seconds the probe kernel is taken to last on the reference host.
/// About what it takes on a quiet host of the type in `README.md`.
const REFERENCE_S: f64 = 1e-3;

/// Probe samples taken on each side of an operation; the median of
/// these rescales it.
const HALF_WIDTH: usize = 3;

/// Entries the kernel inserts.
const KERNEL_ENTRIES: u64 = 3000;

/// Probe samples taken before and after each set-up repeat.
const SETUP_SAMPLES: usize = 3;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// CPU it is running on. Returns that CPU, or `None` when the kernel
/// refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable CPU set of `size_of_val(&mask)` bytes;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn kernel() -> usize {
    let mut map = BTreeMap::new();
    for i in 0..KERNEL_ENTRIES {
        let key = format!("k{}", i.wrapping_mul(2_654_435_761) % 100_000);
        map.insert(key, vec![i; 4]);
    }
    map.len()
}

/// The host-speed probe of one thread: the CPU time of each kernel run,
/// in order.
#[derive(Debug)]
pub struct Probe {
    samples: Vec<f64>,
}

impl Probe {
    /// A probe with one warm-up run (not recorded) and one sample.
    pub fn new() -> Probe {
        std::hint::black_box(kernel());
        let mut p = Probe {
            samples: Vec::new(),
        };
        p.sample();
        p
    }

    /// Runs the kernel once on this thread's CPU clock and records it.
    pub fn sample(&mut self) {
        let t0 = clock::thread_s();
        std::hint::black_box(kernel());
        self.samples.push(clock::thread_s() - t0);
    }

    /// Samples taken so far. An operation keeps this at its end; the
    /// samples around that mark rescale it.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Reference seconds per CPU second for work that ended at `mark`.
    pub fn scale(&self, mark: usize) -> f64 {
        probe_scale(&self.samples, mark, HALF_WIDTH, REFERENCE_S)
    }

    /// Median probe time in seconds over every sample.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(0.0)
    }

    /// Runs `work` between [`SETUP_SAMPLES`] samples before and after
    /// it and returns its result with the CPU seconds the whole process
    /// spent on it, rescaled to reference seconds.
    pub fn process_time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let first = self.mark();
        for _ in 0..SETUP_SAMPLES {
            self.sample();
        }
        let t0 = clock::process_s();
        let v = work();
        let cpu = clock::process_s() - t0;
        for _ in 0..SETUP_SAMPLES {
            self.sample();
        }
        let own = &self.samples[first..];
        (
            v,
            probe_scale(own, SETUP_SAMPLES, SETUP_SAMPLES, REFERENCE_S) * cpu,
        )
    }
}

//! CPU clocks. The benchmark times its work on the CPU clock of the
//! thread or process that does it, not on the wall clock: on a shared
//! virtual machine the wall clock also counts the time the host gives
//! the vCPU to someone else (steal) and the time the thread waits for a
//! core, and both change from run to run. A kernel with paravirtual
//! steal accounting leaves steal out of these clocks.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has run, together.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread_s(), process_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (t1, p1) = (thread_s(), process_s());
        assert!(t1 > t0 && p1 > p0, "busy loop moved the clocks");
        assert!(p1 - p0 >= (t1 - t0) * 0.99, "process covers the thread");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_s() - t1 < 0.025, "sleeping costs no CPU");
    }
}

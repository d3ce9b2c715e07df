//! CPU pinning and process resource usage, through three libc calls.
//!
//! Every simulated node is an OS thread in strict alternation with the
//! kernel thread, so one thread is runnable at a time and one CPU is the
//! honest resource. Unpinned, the host scheduler's placement of those
//! threads decides the wall time (an identical pass flips between 1x and
//! 4x on a 2-core box); pinned, it repeats. The driver therefore pins the
//! process before it spawns anything, and node threads inherit the mask.
//!
//! std already links libc, so the three `extern "C"` declarations below add
//! no dependency.

use std::fmt;

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as the kernel reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    fn only(cpu: usize) -> Self {
        let mut m = [0u64; MASK_WORDS];
        m[cpu / 64] = 1 << (cpu % 64);
        CpuMask(m)
    }

    /// The highest-numbered CPU in the mask.
    fn highest(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    /// How many CPUs the mask allows.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// Why the process could not be pinned. A run that cannot pin is invalid,
/// never silently unpinned.
#[derive(Debug)]
pub enum PinError {
    /// The platform has no `sched_setaffinity`.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    Unsupported,
    /// A libc call failed.
    Os(&'static str, std::io::Error),
    /// The kernel accepted the mask but reading it back gave another one.
    NotApplied,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::Unsupported => write!(f, "CPU pinning is only implemented for Linux"),
            PinError::Os(call, e) => write!(f, "{call} failed: {e}"),
            PinError::NotApplied => write!(f, "affinity mask read back differs from the one set"),
        }
    }
}

/// Process-wide resource usage so far (all threads, exited ones included).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (a thread blocked, e.g. on a condvar).
    pub vol_ctx_switches: u64,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{CpuMask, PinError, Usage, MASK_WORDS};
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` as Linux lays it out on 64-bit targets.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        ixrss: c_long,
        idrss: c_long,
        isrss: c_long,
        minflt: c_long,
        majflt: c_long,
        nswap: c_long,
        inblock: c_long,
        oublock: c_long,
        msgsnd: c_long,
        msgrcv: c_long,
        nsignals: c_long,
        nvcsw: c_long,
        nivcsw: c_long,
    }

    const RUSAGE_SELF: c_int = 0;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    pub fn get_mask() -> Result<CpuMask, PinError> {
        let mut m = [0u64; MASK_WORDS];
        // SAFETY: `m` is a live, writable buffer of exactly the byte size
        // passed; pid 0 names the calling thread; the kernel writes at most
        // `size` bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
        if rc != 0 {
            return Err(PinError::Os(
                "sched_getaffinity",
                std::io::Error::last_os_error(),
            ));
        }
        Ok(CpuMask(m))
    }

    pub fn set_mask(mask: &CpuMask) -> Result<(), PinError> {
        // SAFETY: `mask.0` is a live, readable buffer of exactly the byte
        // size passed; pid 0 names the calling thread; the kernel only
        // reads it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) };
        if rc != 0 {
            return Err(PinError::Os(
                "sched_setaffinity",
                std::io::Error::last_os_error(),
            ));
        }
        Ok(())
    }

    pub fn usage() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the layout
        // the kernel fills in for this target; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Usage::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            vol_ctx_switches: ru.nvcsw as u64,
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{CpuMask, PinError, Usage};

    pub fn get_mask() -> Result<CpuMask, PinError> {
        Err(PinError::Unsupported)
    }

    pub fn set_mask(_: &CpuMask) -> Result<(), PinError> {
        Err(PinError::Unsupported)
    }

    pub fn usage() -> Usage {
        Usage::default()
    }
}

/// The calling thread's affinity mask (threads spawned later inherit it).
pub fn current_mask() -> Result<CpuMask, PinError> {
    sys::get_mask()
}

/// Set the calling thread's affinity mask and verify it by reading it back.
pub fn restore(mask: &CpuMask) -> Result<(), PinError> {
    sys::set_mask(mask)?;
    if sys::get_mask()? != *mask {
        return Err(PinError::NotApplied);
    }
    Ok(())
}

/// Pin the calling thread to the highest-numbered CPU of its inherited
/// mask (the one least likely to host the machine's housekeeping) and
/// return that CPU.
pub fn pin_to_highest(inherited: &CpuMask) -> Result<usize, PinError> {
    let cpu = inherited.highest().ok_or(PinError::NotApplied)?;
    restore(&CpuMask::only(cpu))?;
    Ok(cpu)
}

/// Resource usage of the whole process so far.
pub fn usage() -> Usage {
    sys::usage()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_of_a_mask() {
        assert_eq!(CpuMask([0; MASK_WORDS]).highest(), None);
        assert_eq!(CpuMask::only(0).highest(), Some(0));
        assert_eq!(CpuMask::only(70).highest(), Some(70));
        let mut m = CpuMask::only(3);
        m.0[0] |= 1;
        assert_eq!(m.highest(), Some(3));
        assert_eq!(m.count(), 2);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_is_verified_and_reversible() {
        // Runs on its own test thread, so the mask change stays local.
        let before = current_mask().expect("mask readable");
        let cpu = pin_to_highest(&before).expect("pinnable");
        assert_eq!(current_mask().unwrap(), CpuMask::only(cpu));
        restore(&before).expect("restorable");
        assert_eq!(current_mask().unwrap(), before);
    }
}

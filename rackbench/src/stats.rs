//! Order statistics and process resource readings.

/// The `p`-th percentile (0..=100) of `samples` by nearest rank; sorts in
/// place. `NaN` for an empty set.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// CPU time and peak resident memory of the whole process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size in MB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs
/// (`ru_maxrss`, in KiB, first).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.longs[0] as f64 / 1024.0,
    }
}

/// A Linux CPU set as `sched_{get,set}affinity` take it (1024 CPUs).
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it starts from then on,
/// to the lowest-numbered CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet { bits: [0; 16] };
    // SAFETY: `allowed` is a live, writable CPU set of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .find(|&c| allowed.bits[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live CPU set of `size` bytes, read only.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

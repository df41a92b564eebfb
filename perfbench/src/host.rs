//! Host time: the process CPU clock, the frozen reference kernel, and the
//! arithmetic that turns raw seconds into reference seconds.
//!
//! Raw host seconds do not repeat on a small shared host: neighbours on
//! the same machine steal the vCPU, contend for the shared cache and
//! shift the clock rate, so one unchanged program reads 10-30% apart
//! between runs. Two corrections are applied.
//!
//! * Operations are timed on the process CPU clock, which leaves out
//!   time the vCPU was stolen or the benchmark waited for a CPU.
//! * Between the workload's operations, on the same thread, the
//!   benchmark runs short slices of a fixed reference kernel. A run's
//!   raw seconds are scaled by `NOMINAL_SLICE_S / median(slice)`, so a
//!   host that runs the kernel 10% slower is charged 10% less.
//!
//! The kernel is frozen: it calls into no crate of the simulator, so a
//! change to the program cannot move it. It mixes the two kinds of work
//! the simulator does: dependent updates of a table that stays in L1,
//! and random read-modify-writes of an 8 MiB table that lives in the
//! shared last-level cache, where neighbours' traffic shows.

use std::hint::black_box;

/// Raw seconds of one reference slice on the host the nominal was taken
/// on. Only the unit depends on it: reference seconds are seconds on a
/// host that runs one slice in exactly this time.
pub const NOMINAL_SLICE_S: f64 = 120e-6;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Limits glibc's malloc to one arena; returns false if it refused.
///
/// The runner executes every job on a fresh thread, and with the default
/// arena count which arena a job lands on varies from process to process:
/// the same `paper-figures` iteration peaked anywhere between 18.2 and
/// 24.1 MiB. With one arena it peaks at 17.8-17.9 MiB every time, so
/// `peak_rss_mb` measures the program instead of the allocator's luck.
/// Call before any thread starts.
pub fn single_arena() -> bool {
    // SAFETY: mallopt takes two integers and only sets an allocator
    // parameter; no other thread exists yet to race with the change.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far.
///
/// # Panics
///
/// Panics if the kernel refuses the process CPU clock, which Linux always
/// provides.
#[must_use]
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process peak resident set size in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words in the L1-resident table (16 KiB).
const L1_WORDS: usize = 1 << 12;
/// Words in the cache-resident table (8 MiB).
const LLC_WORDS: usize = 1 << 21;
/// Iterations per slice over each table.
const L1_ITERS: u32 = 20_000;
const LLC_ITERS: u32 = 2_000;

/// The frozen reference kernel.
pub struct Reference {
    l1: Vec<u32>,
    llc: Vec<u32>,
    x: u64,
}

impl Reference {
    /// Allocates and fills both tables.
    #[must_use]
    pub fn new() -> Reference {
        let fill = |n: usize| {
            (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect()
        };
        Reference {
            l1: fill(L1_WORDS),
            llc: fill(LLC_WORDS),
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one slice and returns its CPU seconds.
    pub fn slice(&mut self) -> f64 {
        let t0 = cpu_now();
        let a = rmw(&mut self.l1, &mut self.x, L1_ITERS);
        let b = rmw(&mut self.llc, &mut self.x, LLC_ITERS);
        black_box(a ^ b);
        cpu_now() - t0
    }
}

/// Random read-modify-writes: each update's address depends on the value
/// read, so the loop runs at the latency of the table's cache level.
fn rmw(table: &mut [u32], x: &mut u64, iters: u32) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..iters {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let v = table[(*x as usize) & mask].wrapping_add(acc as u32);
        table[(v as usize) & mask] = v.rotate_left(5);
        acc = acc.wrapping_add(u64::from(v));
    }
    acc
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if !n.is_multiple_of(2) => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Factor that turns raw seconds into reference seconds, given the
/// slices measured alongside them.
#[must_use]
pub fn reference_factor(slices: &[f64]) -> f64 {
    let m = median(slices);
    if m > 0.0 {
        NOMINAL_SLICE_S / m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_host_twice_as_slow_is_charged_half() {
        // Slices at the nominal leave raw seconds unchanged.
        let at_nominal = [NOMINAL_SLICE_S; 5];
        assert!((reference_factor(&at_nominal) - 1.0).abs() < 1e-12);
        // A host that runs the kernel at half speed doubles both the
        // workload's raw seconds and the slices: the product repeats.
        let slow = [2.0 * NOMINAL_SLICE_S; 5];
        let raw_fast = 1.5;
        let raw_slow = 3.0;
        let fast = raw_fast * reference_factor(&at_nominal);
        assert!((raw_slow * reference_factor(&slow) - fast).abs() < 1e-12);
    }

    #[test]
    fn an_outlying_slice_does_not_move_the_factor() {
        let n = NOMINAL_SLICE_S;
        let f = reference_factor(&[n, n, 50.0 * n, n, n]);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_slices_leave_seconds_raw() {
        assert_eq!(reference_factor(&[]), 1.0);
    }

    #[test]
    fn the_process_clock_advances_with_work() {
        let mut r = Reference::new();
        let t0 = cpu_now();
        let s = r.slice();
        assert!(s > 0.0);
        assert!(cpu_now() - t0 >= s);
    }
}

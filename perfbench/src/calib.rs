//! Host-speed calibration.
//!
//! On a shared virtual machine one core runs the same CPU-bound code up to
//! 1.5× slower in a busy stretch of the host than in a quiet one, and the
//! speed moves within seconds. A fixed piece of arithmetic that lives in
//! this benchmark, not in the program, slows by about as much. Timing it
//! right before and after each measured stretch gives the host's speed
//! around the stretch, and dividing by it takes the host's drift out of a
//! time.
//!
//! A burst is timed in CPU time of its own thread, so it reads the speed of
//! the core even while other threads (the daemon's) share that core with
//! it: on a core shared with a busy loop, a burst's wall time quadrupled at
//! its upper quartile while its CPU time did not move.
//!
//! No change to the program can change the calibration: it calls nothing
//! of mmtag's.

use std::hint::black_box;

/// Rounds of one burst: about 1.2 ms on a 2.1 GHz Xeon vCPU.
const ROUNDS: usize = 1_000;
/// Lanes of the burst's arrays (8 KiB each, so they stay in L1).
const LANES: usize = 1024;
/// Burst time, seconds, that calibrated times are scaled to: a calibrated
/// time reads what the raw time would on a host where one burst takes this
/// long.
pub const NOMINAL_S: f64 = 0.001;

/// Seeded arithmetic in the shape of the program's Monte-Carlo kernels:
/// lane-parallel xorshift draws turned into floats, a polynomial and a
/// threshold count over them (loops the compiler vectorises, as it does the
/// kernels' structure-of-arrays loops), and a scalar libm tail.
fn burst(seed: u64) -> f64 {
    let mut s = [0u64; LANES];
    let mut z = seed;
    for v in s.iter_mut() {
        // splitmix64
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut y = z;
        y = (y ^ (y >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        y = (y ^ (y >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *v = (y ^ (y >> 31)) | 1;
    }
    let mut x = [0f64; LANES];
    let (mut acc, mut count) = (0.0f64, 0u64);
    for _ in 0..ROUNDS {
        for (v, u) in s.iter_mut().zip(x.iter_mut()) {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            *u = (*v >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
        for u in x.iter_mut() {
            let p = ((0.3 * *u + 0.2) * *u + 0.1) * *u + 0.05;
            count += u64::from(p > 0.2);
            *u = p;
        }
        for u in x.iter().step_by(16) {
            acc += (*u + 1.0).ln().sqrt();
        }
    }
    acc + count as f64
}

/// CPU seconds this thread has used.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable timespec; the call only writes it.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t);
    }
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Without a per-thread CPU clock, wall time since the first call.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// CPU seconds one burst takes on this thread.
pub fn burst_s() -> f64 {
    let t0 = thread_cpu_s();
    black_box(burst(black_box(t0.to_bits() | 1)));
    thread_cpu_s() - t0
}

/// Calibration bursts between measured stretches. Each stretch is
/// calibrated by the mean of the bursts at its two ends, so a change in
/// the host's speed that lasts longer than a stretch shows in both.
pub struct Clock {
    last: f64,
}

impl Clock {
    pub fn start() -> Clock {
        // The first bursts of a process fault in code and stack.
        for _ in 0..3 {
            burst_s();
        }
        Clock { last: burst_s() }
    }

    /// Ends a stretch: times a burst and returns how much slower than
    /// nominal the host ran the stretch. Divide a time by it, or multiply
    /// a rate, to calibrate it.
    pub fn lap(&mut self) -> f64 {
        let now = burst_s();
        let slowdown = 0.5 * (self.last + now) / NOMINAL_S;
        self.last = now;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_bursts_take_positive_finite_time() {
        let mut clock = Clock::start();
        for _ in 0..3 {
            let s = clock.lap();
            assert!(s > 0.0 && s.is_finite(), "{s}");
        }
    }
}

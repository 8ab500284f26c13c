//! CPU frequency measurement and the multi-core droop model (§IV-E).
//!
//! The paper's key multi-threading finding: per-core throughput loss at
//! high thread counts is caused by **frequency variation**, not memory
//! contention. This module provides (a) the microbenchmark the paper
//! describes — a dependent-op spin measuring effective clock — and (b)
//! the per-architecture frequency/scaling model used to recalibrate
//! single-thread baselines (Fig 11).

use std::time::Duration;
#[cfg(not(target_os = "linux"))]
use std::time::Instant;

use crate::arch::{ArchProfile, VectorLicence};

/// Measure the effective CPU frequency of the calling thread in GHz.
///
/// Runs a dependent integer add chain (IPC ≈ 1 per chain element on
/// every modeled core) for roughly `millis` ms of the thread's own CPU
/// time and converts retired adds to cycles. Accuracy is within a few
/// percent on an idle core. Time the scheduler spends running other
/// threads is not counted, so a loaded machine does not read as a slow
/// clock; frequency droop under contention still shows, which is the
/// quantity the paper recalibrates with.
pub fn measure_effective_ghz(millis: u64) -> f64 {
    const CHAIN: usize = 1024;
    let start = thread_cpu_time();
    let budget = Duration::from_millis(millis.max(1));
    let mut x = 1u64;
    let mut iters = 0u64;
    while thread_cpu_time() - start < budget {
        for _ in 0..64 {
            // 16 dependent adds per unrolled step, CHAIN/16 steps.
            for _ in 0..CHAIN / 16 {
                x = x.wrapping_add(0x9E37);
                x = x.wrapping_add(x >> 7);
                x = x.wrapping_add(0x79B9);
                x = x.wrapping_add(x >> 9);
                x = x.wrapping_add(0x1234);
                x = x.wrapping_add(x >> 11);
                x = x.wrapping_add(0x5678);
                x = x.wrapping_add(x >> 13);
                x = x.wrapping_add(0x9E37);
                x = x.wrapping_add(x >> 7);
                x = x.wrapping_add(0x79B9);
                x = x.wrapping_add(x >> 9);
                x = x.wrapping_add(0x1234);
                x = x.wrapping_add(x >> 11);
                x = x.wrapping_add(0x5678);
                x = x.wrapping_add(x >> 13);
            }
            iters += 1;
        }
        std::hint::black_box(x);
    }
    let secs = (thread_cpu_time() - start).as_secs_f64();
    let adds = iters as f64 * CHAIN as f64;
    // Two dependent adds per chain pair → ~1 cycle per add on the
    // modeled cores.
    adds / secs / 1e9
}

/// CPU time the calling thread has consumed.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the C `struct timespec` layout on
    // 64-bit Linux and outlives the call; the clock id is valid for
    // every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "thread CPU clock unavailable");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Elsewhere, wall time since first use stands in for thread CPU time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Duration {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Thread-scaling prediction for one architecture (Fig 11).
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Threads used.
    pub threads: usize,
    /// Physical cores kept busy.
    pub active_cores: usize,
    /// Delivered frequency per core, GHz.
    pub ghz: f64,
    /// Predicted speedup over 1 thread (same licence).
    pub speedup: f64,
    /// Naive speedup if frequency were flat (the miscalibration the
    /// paper corrects for).
    pub naive_speedup: f64,
}

/// Throughput gain of the second SMT thread on a core for this
/// workload class (the paper found HT "consistently high efficiency"
/// on the CPU-bound kernel; ~30% is typical for port-bound SIMD).
pub const SMT_YIELD: f64 = 0.30;

/// Predict scaling across thread counts for an architecture.
///
/// Threads ≤ cores run one per core at the drooping frequency; threads
/// beyond cores share cores via SMT, each extra thread contributing
/// [`SMT_YIELD`] of a core at the all-core frequency.
pub fn scaling_curve(
    arch: &ArchProfile,
    licence: VectorLicence,
    thread_counts: &[usize],
) -> Vec<ScalingPoint> {
    let f1 = arch.freq_at_licence(1, licence);
    thread_counts
        .iter()
        .map(|&t| {
            let t = t.max(1);
            let active = t.min(arch.cores);
            let ghz = arch.freq_at_licence(active, licence);
            let smt_threads = t
                .saturating_sub(arch.cores)
                .min(arch.cores * (arch.smt - 1));
            let effective_cores = active as f64 + smt_threads as f64 * SMT_YIELD;
            ScalingPoint {
                threads: t,
                active_cores: active,
                ghz,
                speedup: effective_cores * ghz / f1,
                naive_speedup: t.min(arch.logical_cpus()) as f64,
            }
        })
        .collect()
}

/// Parallel efficiency (speedup / threads), frequency-recalibrated:
/// measured against a single thread *running at the drooped frequency*,
/// the correction the paper applies before judging scalability.
pub fn recalibrated_efficiency(arch: &ArchProfile, licence: VectorLicence, threads: usize) -> f64 {
    let pts = scaling_curve(arch, licence, &[threads]);
    let p = &pts[0];
    let fdroop = p.ghz;
    let f1 = arch.freq_at_licence(1, licence);
    // Speedup relative to a hypothetical single thread at the drooped
    // frequency (removes the frequency artefact).
    let corrected = p.speedup * f1 / fdroop;
    corrected / threads.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchId;

    #[test]
    fn microbenchmark_reports_plausible_frequency() {
        let ghz = measure_effective_ghz(30);
        assert!((0.2..8.0).contains(&ghz), "implausible frequency {ghz} GHz");
    }

    #[test]
    fn scaling_monotone_but_sublinear() {
        let arch = ArchProfile::get(ArchId::SkylakeGold6132);
        let counts: Vec<usize> = (1..=arch.logical_cpus()).collect();
        let pts = scaling_curve(arch, VectorLicence::Avx2, &counts);
        for w in pts.windows(2) {
            assert!(
                w[1].speedup >= w[0].speedup - 1e-9,
                "speedup must not regress"
            );
        }
        // Sublinear at full cores due to droop.
        let full = &pts[arch.cores - 1];
        assert!(full.speedup < full.naive_speedup);
        assert!(full.speedup > 0.7 * arch.cores as f64);
    }

    #[test]
    fn smt_improves_throughput() {
        let arch = ArchProfile::get(ArchId::CascadeLakeGold6242);
        let pts = scaling_curve(
            arch,
            VectorLicence::Avx2,
            &[arch.cores, arch.logical_cpus()],
        );
        assert!(pts[1].speedup > pts[0].speedup, "HT must add throughput");
        let gain = pts[1].speedup / pts[0].speedup;
        assert!((1.05..1.6).contains(&gain), "HT gain {gain}");
    }

    #[test]
    fn recalibrated_efficiency_near_one_at_cores() {
        // After removing the frequency droop, scaling to all physical
        // cores should look near-perfect (the paper's conclusion).
        for id in ArchId::ALL {
            let arch = ArchProfile::get(id);
            let eff = recalibrated_efficiency(arch, VectorLicence::Avx2, arch.cores);
            assert!((0.95..=1.05).contains(&eff), "{id}: {eff}");
        }
    }

    #[test]
    fn thread_counts_clamp() {
        let arch = ArchProfile::get(ArchId::HaswellE52660);
        let pts = scaling_curve(arch, VectorLicence::Sse, &[0, 10_000]);
        assert_eq!(pts[0].threads, 1);
        assert_eq!(pts[1].active_cores, arch.cores);
    }
}

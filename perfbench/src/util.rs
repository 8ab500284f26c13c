//! Small helpers: a seeded RNG, percentiles, peak memory, host facts
//! and the metric map the report is printed from.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: tiny, seedable, and stable across platforms, so the same
/// `--seed` always produces the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Derive an independent seed for one input stream of a workload.
pub fn derive(seed: u64, stream: &str) -> u64 {
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    Rng::new(h).next_u64()
}

/// Percentile `p` in `[0, 1]` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn gcups(cells: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        cells as f64 / secs / 1e9
    } else {
        0.0
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den != 0.0 {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals then fourteen longs) and outlives the call;
    // RUSAGE_SELF (0) is always valid.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports ru_maxrss in KiB.
    u.maxrss as f64 / 1024.0
}

/// Facts about the machine that decide whether two results may be
/// compared at all.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub l3_kib: u64,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (cpu, l3_kib) = cpuid_facts();
        Host { nproc, cpu, l3_kib }
    }
}

/// CPU brand string and L3 size straight from CPUID (no files read).
#[cfg(target_arch = "x86_64")]
fn cpuid_facts() -> (String, u64) {
    use std::arch::x86_64::__cpuid_count;
    // Leaves above the reported maximum are checked before use.
    {
        let max_ext = __cpuid_count(0x8000_0000, 0).eax;
        let mut brand = Vec::new();
        if max_ext >= 0x8000_0004 {
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid_count(leaf, 0);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    brand.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
        let cpu = String::from_utf8_lossy(&brand)
            .trim_matches(char::from(0))
            .trim()
            .to_string();
        let mut l3 = 0u64;
        if __cpuid_count(0, 0).eax >= 4 {
            for sub in 0..16 {
                let r = __cpuid_count(4, sub);
                let kind = r.eax & 0x1F;
                if kind == 0 {
                    break;
                }
                if (r.eax >> 5) & 0x7 == 3 {
                    let ways = ((r.ebx >> 22) & 0x3FF) as u64 + 1;
                    let parts = ((r.ebx >> 12) & 0x3FF) as u64 + 1;
                    let line = (r.ebx & 0xFFF) as u64 + 1;
                    let sets = r.ecx as u64 + 1;
                    l3 = ways * parts * line * sets / 1024;
                }
            }
        }
        (cpu, l3)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpuid_facts() -> (String, u64) {
    (String::from("unknown"), 0)
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Sent / succeeded / failed for one phase of a run.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.sent += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, o: Tally) {
        self.sent += o.sent;
        self.failed += o.failed;
    }
}

/// The lines a run prints before its result object.
#[derive(Default)]
pub struct Report {
    pub phases: Vec<(String, Tally)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn phase(&mut self, name: &str, t: Tally) {
        self.phases.push((name.to_string(), t));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for (_, p) in &self.phases {
            t.add(*p);
        }
        t
    }
}

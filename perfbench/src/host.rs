//! What the benchmark knows about the machine it ran on.

use std::hint::black_box;
use std::time::Instant;

/// Identifies the host behind a set of numbers, so a reader can tell when a
/// trajectory of results changed machines.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Median host seconds of [`calibration_work`] over several repeats.
    pub calibration_s: f64,
}

impl HostStamp {
    pub fn measure() -> HostStamp {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let mut times: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(calibration_work());
                t.elapsed().as_secs_f64()
            })
            .collect();
        HostStamp {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            calibration_s: crate::stats::median(&mut times),
        }
    }
}

/// A fixed amount of dependent integer work (about 0.1 s on a 2020s core).
fn calibration_work() -> u64 {
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for i in 0..black_box(50_000_000u64) {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
        x ^= x >> 29;
    }
    x
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak-resident-memory mark, so the next [`peak_rss_mb`] covers
/// only what follows. Where the kernel refuses, the mark keeps covering the
/// whole process so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

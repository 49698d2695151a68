//! Phase-time cost models.
//!
//! These are the simulator-side ground truths that the paper's
//! gray-box estimator (Eq. 4–8) learns to approximate:
//!
//! - `t_sample`   — host-side subgraph expansion (Eq. 7),
//! - `t_transfer` — link push of cache-missed feature rows (Eq. 6),
//! - `t_replace`  — device-side cache eviction/insertion (Eq. 5),
//! - `t_compute`  — aggregate+combine FLOPs on the device (Eq. 8),
//!
//! composed per iteration by Eq. 4:
//! `T = n_iter · max(t_sample + t_transfer, t_replace + t_compute)`
//! when the host and device pipelines overlap, or the plain sum when
//! they do not.

use crate::clock::SimTime;
use crate::profiles::Platform;

/// Numeric precision of device compute and feature transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Precision {
    /// 32-bit floats (4 bytes/scalar).
    #[default]
    Fp32,
    /// 16-bit floats (2 bytes/scalar, faster compute).
    Fp16,
}

impl Precision {
    /// Bytes per scalar.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Fp32 => "FP32",
            Precision::Fp16 => "FP16",
        })
    }
}

/// The cost model for one [`Platform`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    platform: Platform,
}

impl CostModel {
    /// Creates a cost model over `platform`.
    pub fn new(platform: Platform) -> Self {
        CostModel { platform }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Host-side sampling time for a batch that expanded by
    /// `expansion_nodes` (`|V_i| - |B^0|`, Eq. 7) and touched
    /// `edges_touched` adjacency entries.
    pub fn t_sample(&self, expansion_nodes: usize, edges_touched: usize) -> SimTime {
        let vps = self.platform.host.sample_mvps * 1e6;
        // Edge scans are ~50x cheaper than vertex set operations.
        let work = expansion_nodes as f64 + edges_touched as f64 * 0.02;
        SimTime::from_micros(self.platform.host.iteration_overhead_us)
            + SimTime::from_secs(work / vps)
    }

    /// Link transfer time for `bytes` of cache-missed feature data
    /// (Eq. 6), including host-side gather at host memory bandwidth.
    pub fn t_transfer(&self, bytes: usize) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let link = &self.platform.link;
        let gather = bytes as f64 / (self.platform.host.mem_bandwidth_gbs * 1e9);
        SimTime::from_micros(link.latency_us)
            + SimTime::from_secs(bytes as f64 / (link.bandwidth_gbs * 1e9) + gather)
    }

    /// Device-side cache update time: writing `replaced_bytes` of new
    /// rows into a cache holding `cache_entries` entries (Eq. 5 — the
    /// index maintenance grows slowly with cache size).
    pub fn t_replace(&self, replaced_bytes: usize, cache_entries: usize) -> SimTime {
        if replaced_bytes == 0 {
            return SimTime::ZERO;
        }
        let write = replaced_bytes as f64 / (self.platform.device.mem_bandwidth_gbs * 1e9);
        let index_us = 2.0 * ((cache_entries as f64) + 1.0).ln().max(1.0);
        SimTime::from_secs(write) + SimTime::from_micros(index_us)
    }

    /// Device compute time for `flops` of aggregate+combine work on a
    /// batch of `batch_nodes` nodes (Eq. 8). Small batches under-
    /// utilize the device: effective throughput scales by
    /// `n / (n + n_half)` with `n_half = 8192` nodes.
    pub fn t_compute(&self, flops: f64, batch_nodes: usize, precision: Precision) -> SimTime {
        let dev = &self.platform.device;
        let n = batch_nodes as f64;
        let utilization = 0.25 * n / (n + 8192.0);
        let speed = match precision {
            Precision::Fp32 => 1.0,
            Precision::Fp16 => dev.fp16_speedup,
        };
        let eff = dev.compute_tflops * 1e12 * utilization.max(1e-4) * speed;
        SimTime::from_micros(dev.launch_overhead_us) + SimTime::from_secs(flops / eff)
    }

    /// Composes one iteration's phase times per Eq. 4: with
    /// `pipelined`, host work (`sample + transfer`) overlaps device
    /// work (`replace + compute`); otherwise the phases serialize.
    pub fn iteration_time(
        &self,
        t_sample: SimTime,
        t_transfer: SimTime,
        t_replace: SimTime,
        t_compute: SimTime,
        pipelined: bool,
    ) -> SimTime {
        let host = t_sample + t_transfer;
        let device = t_replace + t_compute;
        if pipelined {
            host.max(device)
        } else {
            host + device
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Platform;

    fn model() -> CostModel {
        CostModel::new(Platform::default_rtx4090())
    }

    #[test]
    fn sample_time_monotone_in_expansion() {
        let m = model();
        assert!(m.t_sample(10_000, 0) > m.t_sample(1_000, 0));
        assert!(m.t_sample(1_000, 50_000) > m.t_sample(1_000, 0));
    }

    #[test]
    fn transfer_time_zero_for_zero_bytes() {
        let m = model();
        assert_eq!(m.t_transfer(0), SimTime::ZERO);
        assert!(m.t_transfer(1).as_secs() > 0.0, "latency floor applies");
    }

    #[test]
    fn transfer_scales_roughly_linearly() {
        let m = model();
        let t1 = m.t_transfer(10_000_000).as_secs();
        let t2 = m.t_transfer(20_000_000).as_secs();
        assert!(t2 > 1.7 * t1 && t2 < 2.3 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn slower_link_slower_transfer() {
        let fast = CostModel::new(Platform::default_rtx4090()); // PCIe4
        let slow = CostModel::new(Platform::default_m90()); // PCIe3
        let b = 50_000_000;
        assert!(slow.t_transfer(b) > fast.t_transfer(b));
    }

    #[test]
    fn compute_time_decreases_with_utilization() {
        let m = model();
        let flops = 1e9;
        // Same work over a bigger batch runs at higher utilization.
        let small = m.t_compute(flops, 512, Precision::Fp32);
        let large = m.t_compute(flops, 32_768, Precision::Fp32);
        assert!(large < small);
    }

    #[test]
    fn fp16_faster_than_fp32() {
        let m = model();
        let a = m.t_compute(1e10, 8192, Precision::Fp16);
        let b = m.t_compute(1e10, 8192, Precision::Fp32);
        assert!(a < b);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
    }

    #[test]
    fn replace_time_zero_when_nothing_replaced() {
        let m = model();
        assert_eq!(m.t_replace(0, 1_000_000), SimTime::ZERO);
        assert!(m.t_replace(1000, 10).as_secs() > 0.0);
    }

    #[test]
    fn pipelined_iteration_is_max_not_sum() {
        let m = model();
        let s = SimTime::from_millis(3.0);
        let t = SimTime::from_millis(1.0);
        let r = SimTime::from_millis(0.5);
        let c = SimTime::from_millis(2.0);
        let pipe = m.iteration_time(s, t, r, c, true);
        let seq = m.iteration_time(s, t, r, c, false);
        assert!((pipe.as_millis() - 4.0).abs() < 1e-9);
        assert!((seq.as_millis() - 6.5).abs() < 1e-9);
    }

    #[test]
    fn weaker_device_computes_slower() {
        let strong = CostModel::new(Platform::default_rtx4090());
        let weak = CostModel::new(Platform::default_m90());
        let t_s = strong.t_compute(1e10, 8192, Precision::Fp32);
        let t_w = weak.t_compute(1e10, 8192, Precision::Fp32);
        assert!(t_w > t_s);
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::Fp32.to_string(), "FP32");
        assert_eq!(Precision::Fp16.to_string(), "FP16");
    }
}

#[cfg(test)]
mod overhead_tests {
    use super::*;
    use crate::profiles::Platform;

    #[test]
    fn sample_time_has_per_iteration_floor() {
        let m = CostModel::new(Platform::default_rtx4090());
        let floor = m.t_sample(0, 0).as_secs();
        assert!(floor > 0.0, "per-iteration overhead must be charged");
        let overhead_us = m.platform().host.iteration_overhead_us;
        assert!((floor - overhead_us * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn weaker_host_pays_more_overhead() {
        let fast = CostModel::new(Platform::default_rtx4090()); // Xeon host
        let slow = CostModel::new(Platform::default_m90()); // desktop host
        assert!(slow.t_sample(0, 0) > fast.t_sample(0, 0));
    }
}

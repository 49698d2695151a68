//! Hardware profiles: devices, hosts, and host–device links.
//!
//! The paper evaluates on RTX 4090, A100, and M90 devices connected to
//! CPU hosts over PCIe. We model each platform with a handful of
//! published-spec-derived parameters; the cost models in
//! [`crate::cost`] turn them into phase times. Absolute values only
//! set the time unit — what the reproduction needs is the *ratio*
//! between compute, link, and host-sampling throughput, which these
//! presets preserve.

/// A compute device ("device" in the paper: GPU, FPGA, accelerator).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Peak FP32 throughput in TFLOP/s.
    pub compute_tflops: f64,
    /// Device memory bandwidth in GB/s (drives cache-replacement
    /// cost).
    pub mem_bandwidth_gbs: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity_bytes: usize,
    /// Fixed per-iteration launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Throughput multiplier when computing in FP16.
    pub fp16_speedup: f64,
}

impl DeviceProfile {
    /// NVIDIA RTX 4090 (Ada): 82.6 TFLOP/s FP32, 1008 GB/s, 24 GB.
    pub fn rtx4090() -> Self {
        DeviceProfile {
            name: "RTX 4090".into(),
            compute_tflops: 82.6,
            mem_bandwidth_gbs: 1008.0,
            mem_capacity_bytes: 24 * GB,
            launch_overhead_us: 30.0,
            fp16_speedup: 2.0,
        }
    }

    /// NVIDIA A100 (Ampere): 19.5 TFLOP/s FP32, 1555 GB/s, 40 GB.
    pub fn a100() -> Self {
        DeviceProfile {
            name: "A100".into(),
            compute_tflops: 19.5,
            mem_bandwidth_gbs: 1555.0,
            mem_capacity_bytes: 40 * GB,
            launch_overhead_us: 25.0,
            fp16_speedup: 4.0,
        }
    }

    /// "M90": the paper's mid-range accelerator; modeled as a
    /// 10 TFLOP/s, 400 GB/s, 12 GB part.
    pub fn m90() -> Self {
        DeviceProfile {
            name: "M90".into(),
            compute_tflops: 10.0,
            mem_bandwidth_gbs: 400.0,
            mem_capacity_bytes: 12 * GB,
            launch_overhead_us: 40.0,
            fp16_speedup: 2.0,
        }
    }

    /// A resource-limited variant of this device with `fraction` of
    /// its memory capacity (models the paper's "Pa-Low" scenario of
    /// PaGraph under memory pressure).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_memory_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        self.mem_capacity_bytes = (self.mem_capacity_bytes as f64 * fraction) as usize;
        self.name = format!("{} ({}% mem)", self.name, (fraction * 100.0).round());
        self
    }
}

/// A general-purpose host ("host" in the paper: the CPU side that
/// samples subgraphs and stores the full feature table).
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Human-readable name.
    pub name: String,
    /// Subgraph-sampling throughput in million vertices per second.
    pub sample_mvps: f64,
    /// Host memory bandwidth in GB/s (gathering miss rows before the
    /// PCIe push).
    pub mem_bandwidth_gbs: f64,
    /// Fixed per-iteration overhead in microseconds (dataloader
    /// queueing, Python dispatch, synchronization) — the reason real
    /// frameworks cannot shrink epoch time arbitrarily by enlarging
    /// batches.
    pub iteration_overhead_us: f64,
}

impl HostProfile {
    /// A contemporary server CPU (Xeon-class).
    pub fn xeon() -> Self {
        HostProfile {
            name: "Xeon".into(),
            sample_mvps: 150.0,
            mem_bandwidth_gbs: 80.0,
            iteration_overhead_us: 120.0,
        }
    }

    /// A slower desktop-class host.
    pub fn desktop() -> Self {
        HostProfile {
            name: "Desktop".into(),
            sample_mvps: 60.0,
            mem_bandwidth_gbs: 40.0,
            iteration_overhead_us: 250.0,
        }
    }
}

/// A host–device link (PCIe or DMA).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Human-readable name.
    pub name: String,
    /// Effective (not theoretical) bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
}

impl LinkProfile {
    /// PCIe 3.0 x16 at a realistic ~8 GB/s effective.
    pub fn pcie3() -> Self {
        LinkProfile { name: "PCIe 3.0 x16".into(), bandwidth_gbs: 8.0, latency_us: 20.0 }
    }

    /// PCIe 4.0 x16 at ~16 GB/s effective.
    pub fn pcie4() -> Self {
        LinkProfile { name: "PCIe 4.0 x16".into(), bandwidth_gbs: 16.0, latency_us: 15.0 }
    }

    /// PCIe 5.0 x16 at ~32 GB/s effective.
    pub fn pcie5() -> Self {
        LinkProfile { name: "PCIe 5.0 x16".into(), bandwidth_gbs: 32.0, latency_us: 12.0 }
    }
}

/// A complete heterogeneous platform: host + device + link.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// The host side.
    pub host: HostProfile,
    /// The device side.
    pub device: DeviceProfile,
    /// The interconnect.
    pub link: LinkProfile,
}

impl Platform {
    /// The paper's primary platform: Xeon host + RTX 4090 over PCIe 4.
    pub fn default_rtx4090() -> Self {
        Platform {
            host: HostProfile::xeon(),
            device: DeviceProfile::rtx4090(),
            link: LinkProfile::pcie4(),
        }
    }

    /// Xeon host + A100 over PCIe 4.
    pub fn default_a100() -> Self {
        Platform {
            host: HostProfile::xeon(),
            device: DeviceProfile::a100(),
            link: LinkProfile::pcie4(),
        }
    }

    /// Desktop host + M90 over PCIe 3 (the constrained scenario).
    pub fn default_m90() -> Self {
        Platform {
            host: HostProfile::desktop(),
            device: DeviceProfile::m90(),
            link: LinkProfile::pcie3(),
        }
    }
}

const GB: usize = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_plausible() {
        let d4090 = DeviceProfile::rtx4090();
        let da100 = DeviceProfile::a100();
        let dm90 = DeviceProfile::m90();
        assert!(d4090.compute_tflops > da100.compute_tflops);
        assert!(da100.mem_bandwidth_gbs > d4090.mem_bandwidth_gbs);
        assert!(dm90.compute_tflops < da100.compute_tflops);
        assert!(da100.mem_capacity_bytes > d4090.mem_capacity_bytes);
    }

    #[test]
    fn memory_fraction_scales_capacity() {
        let full = DeviceProfile::rtx4090();
        let low = DeviceProfile::rtx4090().with_memory_fraction(0.25);
        assert_eq!(low.mem_capacity_bytes, full.mem_capacity_bytes / 4);
        assert!(low.name.contains("25"));
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn memory_fraction_validated() {
        let _ = DeviceProfile::rtx4090().with_memory_fraction(0.0);
    }

    #[test]
    fn link_presets_ordered() {
        assert!(LinkProfile::pcie3().bandwidth_gbs < LinkProfile::pcie4().bandwidth_gbs);
        assert!(LinkProfile::pcie4().bandwidth_gbs < LinkProfile::pcie5().bandwidth_gbs);
    }

    #[test]
    fn platforms_compose() {
        let p = Platform::default_m90();
        assert_eq!(p.device.name, "M90");
        assert_eq!(p.link.name, "PCIe 3.0 x16");
    }

    #[test]
    fn platform_debug_names_its_device() {
        let p = Platform::default_rtx4090();
        assert!(format!("{p:?}").contains("RTX 4090"));
    }
}

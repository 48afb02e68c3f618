//! Device specification (Table 3's Tesla V100 column + Volta limits).

/// A CUDA-class device model.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Streaming multiprocessors; one resident block occupies one SM slot.
    pub sms: usize,
    /// Boost clock, GHz (Table 3: 1380 MHz).
    pub clock_ghz: f64,
    /// INT8/INT32 lanes issuing per SM per cycle.
    pub lanes_per_sm: usize,
    /// Shared memory available to one block, bytes (Volta: 96 KiB).
    pub shared_mem_per_block: usize,
    /// Device memory, bytes (16 GB HBM2).
    pub global_mem: u64,
    /// Maximum concurrently resident grids (128 on compute ≥ 7.0, §4.5.1).
    pub max_resident_grids: usize,
    /// Host↔device bandwidth over pinned memory, GB/s.
    pub pcie_gbps: f64,
    /// Fixed per-transfer latency, seconds.
    pub transfer_latency: f64,
    /// cudaMalloc/cudaFree latency avoided by the memory pool, seconds.
    pub alloc_latency: f64,
}

impl DeviceSpec {
    /// The paper's Tesla V100 (Table 3).
    pub const V100: DeviceSpec = DeviceSpec {
        name: "Tesla V100",
        sms: 80,
        clock_ghz: 1.38,
        lanes_per_sm: 64,
        shared_mem_per_block: 96 * 1024,
        global_mem: 16 << 30,
        max_resident_grids: 128,
        pcie_gbps: 12.0,
        transfer_latency: 10e-6,
        alloc_latency: 50e-6,
    };

    /// Total cores (Table 3 reports 5120 = 80 × 64).
    pub fn cores(&self) -> usize {
        self.sms * self.lanes_per_sm
    }

    /// Whether a kernel of `footprint` bytes fits device memory: the one
    /// fit test. A kernel that does not runs on the host instead (§4.5.2).
    pub fn fits(&self, footprint: u64) -> bool {
        footprint <= self.global_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_table3() {
        let d = DeviceSpec::V100;
        assert_eq!(d.cores(), 5120);
        assert_eq!(d.global_mem, 16 << 30);
        assert_eq!(d.max_resident_grids, 128);
        assert!((d.clock_ghz - 1.38).abs() < 1e-9);
    }
}

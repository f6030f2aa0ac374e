//! GPU system configuration (paper Table I): an NVIDIA-Fermi-class manycore
//! with 16 streaming multiprocessors in a 4x4 voltage-stack arrangement.


/// Static configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (16).
    pub n_sms: usize,
    /// SM clock frequency in hertz (700 MHz).
    pub clock_hz: f64,
    /// Maximum resident threads per SM (1536).
    pub threads_per_sm: usize,
    /// Threads per warp (32).
    pub threads_per_warp: usize,
    /// Maximum issue width in warps per cycle (2).
    pub issue_width: u32,
    /// Warps per cooperative thread array (barrier scope).
    pub warps_per_cta: usize,
    /// Shader (SP) cores per SM (32, organized as two 16-wide blocks).
    pub sp_lanes: usize,
    /// Special-function units per SM (4).
    pub sfu_lanes: usize,
    /// Load/store units per SM (16).
    pub lsu_lanes: usize,
    /// Register file size per SM in bytes (128 KB).
    pub register_file_bytes: usize,
    /// Shared memory per SM in bytes (48 KB).
    pub shared_mem_bytes: usize,
    /// L1 data cache per SM in bytes (16 KB with the 48 KB-shared split).
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Unified L2 size in bytes (768 KB).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache line size in bytes (128).
    pub line_bytes: usize,
    /// Number of memory channels / L2 partitions (6).
    pub mem_channels: usize,
    /// DRAM banks per channel (8).
    pub dram_banks: usize,
    /// Peak memory bandwidth in bytes/second (179.2 GB/s), used for
    /// reporting only; the timing model enforces it implicitly.
    pub mem_bandwidth_bps: f64,
    /// SP-instruction result latency, cycles.
    pub sp_latency: u32,
    /// SFU-instruction result latency, cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency, cycles.
    pub shared_latency: u32,
    /// L1 hit latency, cycles.
    pub l1_hit_latency: u32,
    /// Interconnect one-way latency, cycles.
    pub icnt_latency: u32,
    /// L2 hit latency (at the partition), cycles.
    pub l2_hit_latency: u32,
    /// DRAM row-activate (tRCD) in cycles.
    pub dram_t_rcd: u32,
    /// DRAM precharge (tRP) in cycles.
    pub dram_t_rp: u32,
    /// DRAM column access (tCAS) in cycles.
    pub dram_t_cas: u32,
    /// DRAM data burst occupancy per request, cycles.
    pub dram_t_burst: u32,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_sms: 16,
            clock_hz: 700e6,
            threads_per_sm: 1536,
            threads_per_warp: 32,
            issue_width: 2,
            warps_per_cta: 8,
            sp_lanes: 32,
            sfu_lanes: 4,
            lsu_lanes: 16,
            register_file_bytes: 128 * 1024,
            shared_mem_bytes: 48 * 1024,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 768 * 1024,
            l2_ways: 8,
            line_bytes: 128,
            mem_channels: 6,
            dram_banks: 8,
            mem_bandwidth_bps: 179.2e9,
            sp_latency: 10,
            sfu_latency: 20,
            shared_latency: 24,
            l1_hit_latency: 28,
            icnt_latency: 8,
            l2_hit_latency: 24,
            dram_t_rcd: 12,
            dram_t_rp: 12,
            dram_t_cas: 12,
            dram_t_burst: 4,
        }
    }
}

/// Most resident warps an SM can hold: the scheduler tracks warps in
/// 128-bit masks.
pub(crate) const MAX_WARPS_PER_SM: usize = 128;

impl GpuConfig {
    /// Maximum resident warps per SM (48 for the default configuration).
    pub fn warps_per_sm(&self) -> usize {
        self.threads_per_sm / self.threads_per_warp
    }

    /// GPU clock period in seconds.
    pub fn clock_period_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a field is zero where it must not be, warp/thread counts
    /// do not divide evenly, or an SM would hold more than 128 warps.
    pub fn validate(&self) {
        assert!(self.n_sms > 0 && self.clock_hz > 0.0);
        assert!(self.threads_per_warp > 0);
        assert_eq!(
            self.threads_per_sm % self.threads_per_warp,
            0,
            "threads_per_sm must be a multiple of the warp size"
        );
        assert!(
            self.warps_per_sm() <= MAX_WARPS_PER_SM,
            "{} warps per SM exceed the scheduler's {MAX_WARPS_PER_SM}",
            self.warps_per_sm()
        );
        assert!(self.warps_per_cta > 0 && self.warps_per_cta <= self.warps_per_sm());
        assert!(self.issue_width >= 1);
        assert!(self.line_bytes.is_power_of_two());
        assert!(self.mem_channels > 0 && self.dram_banks > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        c.validate();
        assert_eq!(c.n_sms, 16);
        assert_eq!(c.warps_per_sm(), 48);
        assert_eq!(c.threads_per_sm, 1536);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.mem_channels, 6);
        assert!((c.clock_hz - 700e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn validate_rejects_ragged_warps() {
        let c = GpuConfig {
            threads_per_sm: 100,
            ..GpuConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "warps per SM exceed")]
    fn validate_rejects_more_than_128_warps() {
        let c = GpuConfig {
            threads_per_sm: 32 * 129,
            ..GpuConfig::default()
        };
        c.validate();
    }
}

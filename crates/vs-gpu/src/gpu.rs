//! Whole-GPU simulator: 16 SMs sharing a banked L2 and DRAM channels.

use crate::config::GpuConfig;
use crate::mem::{MemResponse, MemorySystem};
use crate::sm::{SchedulerKind, Sm, SmControl, SmCycleStats, SmStats, WorkPool};
use crate::workload::Kernel;

/// Events of one whole-GPU cycle: one entry per SM.
#[derive(Debug, Clone, Default)]
pub struct GpuCycleEvents {
    /// Cycle index.
    pub cycle: u64,
    /// Per-SM events, indexed by SM id.
    pub per_sm: Vec<SmCycleStats>,
}

impl GpuCycleEvents {
    /// An empty event record, for use as a reusable [`Gpu::tick_into`]
    /// output buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The simulated GPU.
///
/// # Examples
///
/// ```
/// use vs_gpu::{Gpu, GpuConfig, SchedulerKind, all_benchmarks, build_kernel};
///
/// let config = GpuConfig::default();
/// let profile = &all_benchmarks()[2]; // heartwall
/// let kernel = build_kernel(profile, &config, 42);
/// let mut gpu = Gpu::new(&config, &kernel, SchedulerKind::Gto);
/// for _ in 0..1_000 {
///     let events = gpu.tick();
///     assert_eq!(events.per_sm.len(), 16);
/// }
/// assert!(gpu.cycle() == 1_000);
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    sms: Vec<Sm>,
    mem: MemorySystem,
    pool: WorkPool,
    cycle: u64,
    kernel_name: String,
    /// Reusable scratch for memory responses delivered each cycle.
    resp_scratch: Vec<MemResponse>,
}

impl Gpu {
    /// Builds a GPU running `kernel` on every SM (with the kernel's per-SM
    /// iteration scaling).
    pub fn new(config: &GpuConfig, kernel: &Kernel, scheduler: SchedulerKind) -> Self {
        config.validate();
        let sms: Vec<Sm> = (0..config.n_sms)
            .map(|i| Sm::new(i, config, kernel, scheduler))
            .collect();
        // Grid size: the per-SM iteration budgets pooled together (the
        // paper's benchmarks launch far more CTAs than SMs). Each warp
        // already holds one batch.
        let total: u64 = (0..config.n_sms)
            .map(|i| u64::from(kernel.iterations_for_sm(i)) * kernel.warps_per_sm as u64)
            .sum();
        let held = (config.n_sms * kernel.warps_per_sm) as u64;
        let pool = WorkPool::new(total.saturating_sub(held));
        Gpu {
            config: config.clone(),
            sms,
            mem: MemorySystem::new(config),
            pool,
            cycle: 0,
            kernel_name: kernel.name.clone(),
            resp_scratch: Vec::new(),
        }
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Name of the kernel being executed.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of SMs.
    pub fn n_sms(&self) -> usize {
        self.sms.len()
    }

    /// Applies control inputs to one SM (effective next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn set_sm_control(&mut self, sm: usize, control: SmControl) {
        self.sms[sm].set_control(control);
    }

    /// Reads back an SM's control inputs.
    pub fn sm_control(&self, sm: usize) -> SmControl {
        self.sms[sm].control()
    }

    /// Advances the whole GPU by one cycle and reports per-SM events.
    ///
    /// Allocates a fresh event record per call; the hot path should use
    /// [`Gpu::tick_into`] with a reusable buffer instead.
    pub fn tick(&mut self) -> GpuCycleEvents {
        let mut events = GpuCycleEvents::new();
        self.tick_into(&mut events);
        events
    }

    /// Advances the whole GPU by one cycle, writing per-SM events into the
    /// reusable `events` record (cleared and refilled; its capacity is kept).
    pub fn tick_into(&mut self, events: &mut GpuCycleEvents) {
        let now = self.cycle;
        events.cycle = now;
        events.per_sm.clear();
        for sm in &mut self.sms {
            events.per_sm.push(sm.tick(now, &mut self.mem, &mut self.pool));
        }
        self.mem.tick_into(now, &mut self.resp_scratch);
        for resp in &self.resp_scratch {
            self.sms[resp.sm].on_response(resp);
        }
        self.cycle += 1;
    }

    /// True when every SM has retired its kernel.
    pub fn done(&self) -> bool {
        self.sms.iter().all(Sm::done)
    }

    /// True when one specific SM is done.
    pub fn sm_done(&self, sm: usize) -> bool {
        self.sms[sm].done()
    }

    /// Runs until completion or `max_cycles`, discarding events. Returns the
    /// cycle count reached.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        let mut events = GpuCycleEvents::new();
        while !self.done() && self.cycle < max_cycles {
            self.tick_into(&mut events);
        }
        self.cycle
    }

    /// Per-SM lifetime statistics.
    pub fn sm_stats(&self) -> Vec<SmStats> {
        self.sms.iter().map(Sm::stats).collect()
    }

    /// Total instructions retired across all SMs.
    pub fn total_instructions(&self) -> u64 {
        self.sms.iter().map(|s| s.stats().instructions).sum()
    }

    /// Kernel-body batches still waiting in the grid pool.
    pub fn pool_remaining(&self) -> u64 {
        self.pool.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{benchmark, build_kernel};

    fn quick_kernel(name: &str) -> (GpuConfig, Kernel) {
        let cfg = GpuConfig::default();
        let mut k = build_kernel(&benchmark(name).unwrap(), &cfg, 11);
        k.warps_per_sm = 8;
        k.iterations = 3;
        (cfg, k)
    }

    #[test]
    fn gpu_runs_kernel_to_completion() {
        let (cfg, k) = quick_kernel("heartwall");
        let mut gpu = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let cycles = gpu.run(5_000_000);
        assert!(gpu.done(), "stuck after {cycles} cycles");
        assert!(gpu.total_instructions() > 0);
    }

    #[test]
    fn work_pool_keeps_sms_busy_to_the_end() {
        // With a shared grid pool, every SM keeps drawing batches until the
        // pool drains, so completion times cluster tightly even for an
        // imbalanced profile — no long single-SM idle tails.
        let cfg = GpuConfig::default();
        let mut k = build_kernel(&benchmark("backprop").unwrap(), &cfg, 11);
        k.warps_per_sm = 8;
        k.iterations = 10;
        let mut gpu = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let mut first_done_cycle = None;
        while !gpu.done() && gpu.cycle() < 10_000_000 {
            gpu.tick();
            if first_done_cycle.is_none() && (0..16).any(|i| gpu.sm_done(i)) {
                first_done_cycle = Some(gpu.cycle());
            }
        }
        assert!(gpu.done());
        assert_eq!(gpu.pool_remaining(), 0);
        let first = first_done_cycle.unwrap();
        // The tail is at most ~one batch long, a small fraction of the run.
        let tail = gpu.cycle() - first;
        let frac = tail as f64 / gpu.cycle() as f64;
        assert!(frac < 0.2, "tail too long: {tail} of {}", gpu.cycle());
    }

    #[test]
    fn per_sm_controls_are_independent() {
        let (cfg, k) = quick_kernel("hotspot");
        let mut gpu = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        gpu.set_sm_control(
            0,
            SmControl {
                sm_gated: true,
                ..SmControl::default()
            },
        );
        for _ in 0..1_000 {
            let e = gpu.tick();
            assert!(!e.per_sm[0].active);
        }
        assert!(gpu.sm_stats()[1].active_cycles > 0);
        assert_eq!(gpu.sm_stats()[0].active_cycles, 0);
    }

    #[test]
    fn events_expose_issue_activity() {
        let (cfg, k) = quick_kernel("blackscholes");
        let mut gpu = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let mut sp = 0u64;
        let mut sfu = 0u64;
        for _ in 0..50_000 {
            let e = gpu.tick();
            for s in &e.per_sm {
                sp += u64::from(s.issued_sp);
                sfu += u64::from(s.issued_sfu);
            }
            if gpu.done() {
                break;
            }
        }
        assert!(sp > 0, "SP instructions must issue");
        assert!(sfu > 0, "blackscholes uses the SFU");
    }

    #[test]
    fn two_level_scheduler_completes_barrier_kernels() {
        // The active-set scheduler swaps barrier-blocked warps out; it must
        // still release barriers and finish (a buggy swap policy deadlocks).
        let (cfg, k) = quick_kernel("hotspot");
        let mut gpu = Gpu::new(&cfg, &k, SchedulerKind::TwoLevelGates);
        let cycles = gpu.run(10_000_000);
        assert!(gpu.done(), "two-level scheduler deadlocked after {cycles} cycles");
    }

    #[test]
    fn two_level_scheduler_matches_gto_throughput_roughly() {
        let (cfg, k) = quick_kernel("heartwall");
        let mut gto = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let mut gates = Gpu::new(&cfg, &k, SchedulerKind::TwoLevelGates);
        let t_gto = gto.run(10_000_000) as f64;
        let t_gates = gates.run(10_000_000) as f64;
        assert!(gto.done() && gates.done());
        // Warped Gates reports negligible performance cost from GATES.
        assert!(
            t_gates / t_gto < 1.35,
            "two-level cost too high: {t_gto} vs {t_gates}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (cfg, k) = quick_kernel("srad");
        let mut a = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let mut b = Gpu::new(&cfg, &k, SchedulerKind::Gto);
        let ca = a.run(3_000_000);
        let cb = b.run(3_000_000);
        assert_eq!(ca, cb);
        assert_eq!(a.total_instructions(), b.total_instructions());
    }
}

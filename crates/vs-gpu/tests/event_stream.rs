//! The GPU model's event stream, pinned bit for bit.
//!
//! Every co-simulation reads the model only through its per-SM, per-cycle
//! events, so a speed-up of the SM or memory code must leave every one of
//! them unchanged. These runs cover the twelve benchmarks under the GTO
//! scheduler with five control schedules and under the two-level scheduler
//! with two, with each SM's controls redrawn from a fixed hash every
//! [`EPOCH`] cycles. Every field of every cycle's `SmCycleStats`, each
//! SM's final `SmStats` and the memory system's `MemStats` fold into one
//! FNV-1a digest, computed here rather than with a `std` hasher, whose
//! output may change between toolchains. Each run is one batch per warp
//! and at most [`MAX_CYCLES`] cycles, so a debug build checks all 84 in a
//! few seconds. Runs of five of the benchmarks finish inside that under
//! both schedulers, so warp retirement and the shrinking of the two-level
//! scheduler's active set are covered.
//!
//! The runs tick the model's parts (`Sm`, `MemorySystem`, `WorkPool`) in
//! `Gpu::tick_into`'s order, because `Gpu` does not expose its memory
//! statistics; `machine_ticks_like_gpu` checks that the two agree.

use vs_gpu::{
    all_benchmarks, benchmark, build_kernel, Gpu, GpuConfig, GpuCycleEvents, Kernel, MemResponse,
    MemStats, MemorySystem, SchedulerKind, Sm, SmControl, SmCycleStats, SmStats, WorkPool,
};

/// The digest of every run below. A change to it is a change to the
/// simulated machine: every figure of every co-simulation moves with it.
const PINNED_DIGEST: u64 = 0xfc8d_62d4_7255_b051;

/// Kernel iterations are scaled by this, as `CosimConfig::workload_scale`
/// scales them.
const WORKLOAD_SCALE: f64 = 0.01;
const KERNEL_SEED: u64 = 42;
/// Cycles between control redraws.
const EPOCH: u64 = 100;
/// A run that has not finished by then stops there.
const MAX_CYCLES: u64 = 3_000;

/// How a run's SM controls are drawn each epoch.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// `SmControl::default()` throughout.
    Default,
    /// DIWS issue widths and FII fake-instruction rates.
    IssueWidthAndFakes,
    /// DFS clock scaling.
    Frequency,
    /// Execution-unit power gating with varied idle-detect thresholds.
    UnitGating,
    /// Whole-SM gating of about one SM in four.
    SmGating,
    /// All of the above at once.
    Mixed,
}

const RUNS: [(SchedulerKind, Schedule); 7] = [
    (SchedulerKind::Gto, Schedule::Default),
    (SchedulerKind::Gto, Schedule::IssueWidthAndFakes),
    (SchedulerKind::Gto, Schedule::Frequency),
    (SchedulerKind::Gto, Schedule::UnitGating),
    (SchedulerKind::Gto, Schedule::SmGating),
    (SchedulerKind::TwoLevelGates, Schedule::UnitGating),
    (SchedulerKind::TwoLevelGates, Schedule::Mixed),
];

/// splitmix64's finalizer: a fixed, well-mixed hash of one word.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SM `sm`'s controls in `epoch` under `schedule`.
fn control(schedule: Schedule, epoch: u64, sm: usize) -> SmControl {
    let h = mix(mix(mix(schedule as u64) ^ epoch) ^ sm as u64);
    let pick = |shift: u32, n: u64| ((h >> shift) % n) as usize;
    let width = [0.5, 1.0, 1.3, 1.5, 2.0][pick(0, 5)];
    let fakes = [0.0, 0.0, 0.25, 0.5, 1.0, 1.5][pick(8, 6)];
    let freq = [0.3, 0.5, 0.75, 0.9, 1.0, 1.0][pick(16, 6)];
    let idle_detect = [1, 2, 5, 10, 20][pick(24, 5)];
    let sm_gated = pick(32, 4) == 0;
    let base = SmControl::default();
    match schedule {
        Schedule::Default => base,
        Schedule::IssueWidthAndFakes => SmControl {
            issue_width: width,
            fake_rate: fakes,
            ..base
        },
        Schedule::Frequency => SmControl {
            freq_scale: freq,
            ..base
        },
        Schedule::UnitGating => SmControl {
            unit_gating: true,
            gating_idle_detect: idle_detect,
            ..base
        },
        Schedule::SmGating => SmControl { sm_gated, ..base },
        Schedule::Mixed => SmControl {
            issue_width: width,
            fake_rate: fakes,
            freq_scale: freq,
            sm_gated,
            unit_gating: pick(40, 2) == 0,
            gating_idle_detect: idle_detect,
        },
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Every field of one SM cycle (the exhaustive pattern makes a new
    /// field a compile error here rather than a silent gap).
    fn cycle(&mut self, s: &SmCycleStats) {
        let SmCycleStats {
            active,
            issued_sp,
            issued_sfu,
            issued_lsu,
            issued_fake,
            issued_ctrl,
            l1_hits,
            l1_misses,
            shared_accesses,
            stores,
            atomics,
            sp_gated,
            sfu_gated,
            lsu_gated,
            unit_wakeups,
            live_warps,
        } = *s;
        self.bytes(&[
            u8::from(active),
            issued_sp,
            issued_sfu,
            issued_lsu,
            issued_fake,
            issued_ctrl,
            l1_hits,
            l1_misses,
            shared_accesses,
            stores,
            atomics,
            u8::from(sp_gated),
            u8::from(sfu_gated),
            u8::from(lsu_gated),
            unit_wakeups,
            live_warps,
        ]);
    }

    fn sm_stats(&mut self, s: &SmStats) {
        let SmStats {
            active_cycles,
            instructions,
            fake_instructions,
        } = *s;
        for x in [active_cycles, instructions, fake_instructions] {
            self.word(x);
        }
    }

    fn mem_stats(&mut self, s: &MemStats) {
        let MemStats {
            l2_accesses,
            l2_hits,
            dram_requests,
            atomics,
        } = *s;
        for x in [l2_accesses, l2_hits, dram_requests, atomics] {
            self.word(x);
        }
    }
}

fn kernel(name: &str, config: &GpuConfig) -> Kernel {
    let profile = benchmark(name).expect("known benchmark");
    let mut kernel = build_kernel(&profile, config, KERNEL_SEED);
    kernel.iterations = ((f64::from(kernel.iterations) * WORKLOAD_SCALE).round() as u32).max(1);
    kernel
}

/// The GPU's parts, built as `Gpu::new` builds them and ticked as
/// `Gpu::tick_into` ticks them.
struct Machine {
    sms: Vec<Sm>,
    mem: MemorySystem,
    pool: WorkPool,
    responses: Vec<MemResponse>,
    cycle: u64,
}

impl Machine {
    fn new(config: &GpuConfig, kernel: &Kernel, scheduler: SchedulerKind) -> Self {
        let total: u64 = (0..config.n_sms)
            .map(|i| u64::from(kernel.iterations_for_sm(i)) * kernel.warps_per_sm as u64)
            .sum();
        let held = (config.n_sms * kernel.warps_per_sm) as u64;
        Machine {
            sms: (0..config.n_sms)
                .map(|i| Sm::new(i, config, kernel, scheduler))
                .collect(),
            mem: MemorySystem::new(config),
            pool: WorkPool::new(total.saturating_sub(held)),
            responses: Vec::new(),
            cycle: 0,
        }
    }

    fn tick(&mut self, events: &mut Vec<SmCycleStats>) {
        let now = self.cycle;
        events.clear();
        for sm in &mut self.sms {
            events.push(sm.tick(now, &mut self.mem, &mut self.pool));
        }
        self.mem.tick_into(now, &mut self.responses);
        for resp in &self.responses {
            self.sms[resp.sm].on_response(resp);
        }
        self.cycle += 1;
    }

    fn done(&self) -> bool {
        self.sms.iter().all(Sm::done)
    }
}

/// One run's digest and length.
fn run(name: &str, scheduler: SchedulerKind, schedule: Schedule) -> (u64, u64) {
    let config = GpuConfig::default();
    let mut machine = Machine::new(&config, &kernel(name, &config), scheduler);
    let mut digest = Fnv::new();
    let mut events = Vec::new();
    while !machine.done() && machine.cycle < MAX_CYCLES {
        if machine.cycle.is_multiple_of(EPOCH) {
            let epoch = machine.cycle / EPOCH;
            for (i, sm) in machine.sms.iter_mut().enumerate() {
                sm.set_control(control(schedule, epoch, i));
            }
        }
        machine.tick(&mut events);
        for s in &events {
            digest.cycle(s);
        }
    }
    digest.word(machine.cycle);
    for sm in &machine.sms {
        digest.sm_stats(&sm.stats());
    }
    digest.mem_stats(&machine.mem.stats());
    (digest.0, machine.cycle)
}

#[test]
fn event_stream_matches_its_pinned_digest() {
    let mut digest = Fnv::new();
    let mut cycles = 0;
    for profile in all_benchmarks() {
        for (scheduler, schedule) in RUNS {
            let (d, n) = run(&profile.name, scheduler, schedule);
            println!(
                "{:>12} {scheduler:?} {schedule:?}: {n} cycles, digest {d:016x}",
                profile.name
            );
            digest.word(d);
            cycles += n;
        }
    }
    println!("{cycles} cycles in all, digest {:016x}", digest.0);
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "the GPU model's event stream changed (digest {:016x}, pinned {PINNED_DIGEST:016x})",
        digest.0
    );
}

/// The machine above is `Gpu`: the same events every cycle and the same
/// statistics at the end, under changing controls and both schedulers.
#[test]
fn machine_ticks_like_gpu() {
    let config = GpuConfig::default();
    for (name, scheduler) in [
        ("bfs", SchedulerKind::Gto),
        ("hotspot", SchedulerKind::TwoLevelGates),
    ] {
        let kernel = kernel(name, &config);
        let mut gpu = Gpu::new(&config, &kernel, scheduler);
        let mut machine = Machine::new(&config, &kernel, scheduler);
        let mut gpu_events = GpuCycleEvents::new();
        let mut events = Vec::new();
        while !gpu.done() && gpu.cycle() < MAX_CYCLES {
            if gpu.cycle().is_multiple_of(EPOCH) {
                let epoch = gpu.cycle() / EPOCH;
                for (i, sm) in machine.sms.iter_mut().enumerate() {
                    let c = control(Schedule::Mixed, epoch, i);
                    sm.set_control(c);
                    gpu.set_sm_control(i, c);
                }
            }
            gpu.tick_into(&mut gpu_events);
            machine.tick(&mut events);
            assert_eq!(
                gpu_events.per_sm, events,
                "{name}: cycle {}",
                gpu_events.cycle
            );
        }
        assert_eq!(machine.done(), gpu.done(), "{name}");
        let stats: Vec<SmStats> = machine.sms.iter().map(Sm::stats).collect();
        assert_eq!(gpu.sm_stats(), stats, "{name}");
    }
}

//! In-process probes of the simulator's layers: the co-sim stage profile
//! over the scenario catalogue, and timed windows around single calls into
//! vs-gpu, vs-circuit, vs-control and vs-core. Each probe times public
//! functions of the lower crates from this file; nothing inside the
//! program is instrumented for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vs_bench::{pds_configs, RunSettings};
use vs_circuit::{BatchedTransient, Integration, RecoveryPolicy, SolverWorkspace, Transient};
use vs_control::{ControllerConfig, VoltageController};
use vs_core::{
    run_worst_case, Cosim, CosimPool, FaultPlan, PdsKind, PdsRig, PowerManagement, ScenarioId,
    SupervisorConfig, WorstCaseConfig,
};
use vs_gpu::{benchmark, build_kernel, Gpu, GpuConfig, SchedulerKind};
use vs_hypervisor::DfsConfig;
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
use vs_telemetry::{Stage, Telemetry};

use crate::metrics::Outcome;
use crate::stats::median;

/// Counts heap allocations (and reallocations) of this process.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter touches
// no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to check.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The crate each co-sim stage belongs to, in loop order.
const STAGE_CRATES: [(Stage, &str); 5] = [
    (Stage::GpuStep, "vs-gpu"),
    (Stage::PowerModel, "vs-power"),
    (Stage::CircuitSolve, "vs-circuit"),
    (Stage::ControllerUpdate, "vs-control"),
    (Stage::HypervisorRemap, "vs-hypervisor"),
];

/// Timed windows per kernel probe; the median window is reported.
const WINDOWS: usize = 5;

/// The stage profile: 12 scenarios under each Table-III PDS, plus 12 under
/// VS-aware power management (DFS at a 70% goal through the hypervisor).
/// Each scenario runs twice, interleaved so both see the same host:
/// through `Cosim::builder(..).telemetry(Telemetry::enabled())` for the
/// stage times, then through `CosimPool` with telemetry off for the plain
/// cost and the allocation count.
pub fn cosim_stages(out: &mut Outcome, settings: &RunSettings) {
    let vs_aware = PowerManagement {
        dfs: Some(DfsConfig::with_goal(0.7)),
        use_hypervisor: true,
        ..PowerManagement::default()
    };
    let mut configs: Vec<(PdsKind, PowerManagement)> = pds_configs()
        .into_iter()
        .map(|k| (k, PowerManagement::default()))
        .collect();
    configs.push((PdsKind::VsCrossLayer { area_mult: 0.2 }, vs_aware));

    let mut stage_s = [0.0; STAGE_CRATES.len()];
    let (mut wall_on, mut wall_off) = (0.0, 0.0);
    let (mut cycles_on, mut cycles_off, mut allocs, mut runs) = (0u64, 0u64, 0u64, 0usize);
    let mut workspace = SolverWorkspace::new();
    let mut pool = CosimPool::new();
    for (kind, pm) in &configs {
        let cfg = settings.config(*kind);
        for id in ScenarioId::ALL {
            let profile = id.profile();
            let t0 = Instant::now();
            let mut cosim = Cosim::builder(&cfg, &profile)
                .power_management(pm.clone())
                .telemetry(Telemetry::enabled())
                .workspace(std::mem::take(&mut workspace))
                .build();
            let run = cosim.run_supervised(&SupervisorConfig::default(), &FaultPlan::none());
            workspace = cosim.into_workspace();
            wall_on += t0.elapsed().as_secs_f64();
            cycles_on += run.report.cycles;
            for sample in run
                .telemetry
                .as_ref()
                .and_then(|a| a.stages())
                .unwrap_or(&[])
            {
                if let Some(i) = STAGE_CRATES
                    .iter()
                    .position(|(s, _)| s.name() == sample.stage)
                {
                    stage_s[i] += sample.total_s;
                }
            }

            let a0 = allocations();
            let t0 = Instant::now();
            let report = pool.run_profile(&cfg, &profile, pm.clone());
            wall_off += t0.elapsed().as_secs_f64();
            allocs += allocations() - a0;
            cycles_off += report.cycles;
            runs += 1;
        }
    }
    out.check(
        "telemetry leaves simulated cycles unchanged",
        cycles_on == cycles_off && cycles_on > 0,
        format!("{cycles_on} cycles with telemetry, {cycles_off} without, over {runs} runs"),
    );
    let cycles = cycles_off.max(1) as f64;
    let total: f64 = stage_s.iter().sum();
    for ((stage, krate), s) in STAGE_CRATES.iter().zip(stage_s) {
        out.metric(
            &format!("{krate}.{}_ns_per_cycle", stage.name()),
            s * 1e9 / cycles,
            runs,
        );
        out.metric(&format!("{krate}.{}_share", stage.name()), s / total, runs);
    }
    out.metric("vs-core.cycles", cycles_off as f64, runs);
    out.metric("vs-core.ns_per_cycle", wall_off * 1e9 / cycles, runs);
    out.metric(
        "vs-core.profiler_overhead_frac",
        wall_on / wall_off - 1.0,
        runs,
    );
    out.metric("vs-core.allocs_per_cycle", allocs as f64 / cycles, runs);
}

/// Median over `WINDOWS` timed windows of `iters` calls (after
/// `iters / 4`, at least one, warm-up calls) of the per-call nanoseconds.
fn window_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..(iters / 4).max(1) {
        f();
    }
    let windows: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&windows).unwrap_or(f64::NAN)
}

/// The stacked cross-layer netlist at 0.2x CR-IVR area with per-SM loads,
/// as `benches/perf.rs` and `bench_hotpath` build it; `lane` shifts the
/// loads so batched lanes are parameter variants of one stamp matrix.
fn stacked_transient(lane: usize) -> Transient {
    let params = PdnParams::default();
    let am = AreaModel::default();
    let crivr = CrIvrConfig::cross_layer_default(&am);
    let pdn = StackedPdn::build(&params, Some((&crivr, &am)));
    let (v0, g2) = pdn.balanced_initial_state();
    let mut sim = Transient::with_initial_state(
        &pdn.netlist,
        1.0 / 700e6,
        Integration::Trapezoidal,
        &v0,
        &g2,
    )
    .expect("the stacked netlist builds");
    for (layer, row) in pdn.sm_load.iter().enumerate() {
        for (col, &load) in row.iter().enumerate() {
            sim.set_control(
                load,
                6.0 + 0.4 * lane as f64 + 0.1 * (layer * row.len() + col) as f64,
            );
        }
    }
    sim
}

/// The kernel probes.
pub fn kernels(out: &mut Outcome) {
    let gpu_cfg = GpuConfig::default();
    for name in ["heartwall", "bfs"] {
        let kernel = build_kernel(&benchmark(name).expect("catalogue benchmark"), &gpu_cfg, 1);
        let mut gpu = Gpu::new(&gpu_cfg, &kernel, SchedulerKind::Gto);
        out.metric(
            &format!("vs-gpu.tick_ns.{name}"),
            window_ns(2000, || {
                black_box(gpu.tick());
            }),
            WINDOWS,
        );
    }

    let mut sim = stacked_transient(0);
    out.metric(
        "vs-circuit.step_ns",
        window_ns(4000, || sim.step().expect("stacked step")),
        WINDOWS,
    );

    let policy = RecoveryPolicy::default();
    for n in [1usize, 2, 4, 8] {
        let mut batch = BatchedTransient::new((0..n).map(stacked_transient).collect());
        let per_step = window_ns(1000, || {
            black_box(batch.step_all(&policy));
        });
        out.metric(
            &format!("vs-circuit.lane_ns.n{n}"),
            per_step / n as f64,
            WINDOWS,
        );
    }

    let mut ctrl = VoltageController::new(ControllerConfig::default());
    let mut voltages = vec![1.0; 16];
    voltages[5] = 0.85;
    out.metric(
        "vs-control.update_ns",
        window_ns(20_000, || {
            black_box(ctrl.update(black_box(&voltages)));
        }),
        WINDOWS,
    );

    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let (loads, zeros) = (vec![8.0; 16], vec![0.0; 16]);
    out.metric(
        "vs-core.rig_step_ns",
        window_ns(4000, || {
            rig.step(black_box(&loads), &zeros, &zeros)
                .expect("rig step");
        }),
        WINDOWS,
    );

    let worst = WorstCaseConfig::default();
    out.metric(
        "vs-core.worst_case_ms",
        window_ns(1, || {
            black_box(run_worst_case(&worst));
        }) / 1e6,
        WINDOWS,
    );
}

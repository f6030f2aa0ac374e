//! Performance benchmarks for the simulation kernels: the per-cycle costs
//! that determine how long the figure regeneration runs take.
//!
//! This is a self-contained harness (`harness = false`): the offline build
//! environment has no criterion, so we time each kernel directly with
//! `std::time::Instant`, report ns/iter, and calibrate iteration counts from
//! a short warm-up. Run with `cargo bench -p vs-bench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vs_circuit::{AcAnalysis, BatchedTransient, Integration, RecoveryPolicy, Transient};
use vs_control::{ControllerConfig, VoltageController};
use vs_core::{PdsKind, PdsRig};
use vs_gpu::{benchmark, build_kernel, Gpu, GpuConfig, GpuCycleEvents, SchedulerKind};
use vs_bench::obs;
use vs_num::{eigenvalues, expm, LuFactors, Matrix};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
use vs_telemetry::{Stage, Telemetry};

/// Counting wrapper over the system allocator, so the scalar hot-path guard
/// below can assert a zero allocation delta (the same acceptance bar as the
/// `vs-circuit` `zero_alloc` tests, applied one layer up at the rig).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Times `f` and prints a criterion-style `name ... ns/iter` line.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and calibrate so each measurement takes ~0.2 s.
    let t0 = Instant::now();
    let mut warmup_iters = 0u64;
    while t0.elapsed().as_millis() < 50 {
        f();
        warmup_iters += 1;
    }
    let per_iter = t0.elapsed().as_nanos() as u64 / warmup_iters.max(1);
    let iters = (200_000_000 / per_iter.max(1)).clamp(10, 10_000_000);

    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>12.1} ns/iter  ({iters} iters)");
}

fn bench_circuit() {
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
    .unwrap();
    for layer in 0..4 {
        for col in 0..4 {
            sim.set_control(pdn.sm_load[layer][col], 8.0);
        }
    }
    bench("stacked_pdn_transient_step", || {
        sim.step().unwrap();
        black_box(sim.voltage(pdn.die_top));
    });

    let ac = AcAnalysis::new(&pdn.netlist).unwrap();
    bench("stacked_pdn_ac_solve", || {
        black_box(
            ac.impedance(black_box(70e6), pdn.sm_top[1][0], pdn.sm_bottom[1][0])
                .unwrap(),
        );
    });
}

fn bench_numerics() {
    let n = 8;
    let mut a = Matrix::zeros(n, n);
    let mut seed = 0x12345u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    };
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = next();
        }
    }
    bench("expm_8x8", || {
        black_box(expm(&a));
    });
    bench("eigenvalues_8x8", || {
        black_box(eigenvalues(&a));
    });

    let m = 48;
    let mut big = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            big[(i, j)] = next();
        }
        big[(i, i)] += 10.0;
    }
    let lu = LuFactors::factor(&big).unwrap();
    let rhs = vec![1.0; m];
    bench("lu_solve_48", || {
        black_box(lu.solve(&rhs));
    });
}

fn bench_gpu() {
    let cfg = GpuConfig::default();
    let kernel = build_kernel(&benchmark("heartwall").unwrap(), &cfg, 1);
    let mut gpu = Gpu::new(&cfg, &kernel, SchedulerKind::Gto);
    bench("gpu_tick_16_sms", || {
        black_box(gpu.tick());
    });
}

fn bench_controller() {
    let mut ctrl = VoltageController::new(ControllerConfig::default());
    let mut voltages = vec![1.0; 16];
    voltages[5] = 0.85;
    bench("controller_update", || {
        black_box(ctrl.update(black_box(&voltages)));
    });
}

fn bench_rig() {
    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    bench("pds_rig_step", || {
        rig.step(black_box(&p), &z, &z).expect("bench step");
    });
}

/// Guard: the scalar rig hot path must stay allocation-free per cycle.
/// `PdsRig::step` is the composition `stage_loads` → `step_with_recovery` →
/// `finish_step` — the seams `RigLanes` hooks into — and splitting it must
/// not have introduced per-cycle heap traffic. Same bar as the `vs-circuit`
/// `zero_alloc` tests: warm the rig, then a window of steady-state steps
/// must leave the counting allocator untouched.
fn bench_scalar_alloc_guard() {
    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    for _ in 0..64 {
        rig.step(&p, &z, &z).expect("warm-up step");
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        rig.step(black_box(&p), &z, &z).expect("guarded step");
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    println!("scalar_rig_step alloc guard: {delta} allocations over 1000 cycles (limit 0)");
    assert_eq!(
        delta, 0,
        "scalar rig.step allocated {delta} times over 1000 cycles: \
         the stage_loads/step/finish_step split is no longer allocation-free"
    );
}

/// Lane counts the scaling guard covers (the last one includes a partial
/// amortization regime: eight lanes share one factorization).
const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shared warm-up steps before each timed window (first steps touch
/// capacity; scratch buffers size themselves lazily).
const LANE_WARMUP_STEPS: usize = 64;
/// Shared steps per timed window.
const LANE_MEASURED_STEPS: usize = 2_000;
/// Timed windows per lane count; the best is reported so scheduler noise
/// cannot produce a spurious non-monotonic row.
const LANE_TRIALS: usize = 3;

/// One parameter-variant lane: the cross-layer 0.2x stacked netlist the
/// sweep spends most of its time in, with per-lane SM load currents. Loads
/// live on controlled current sources (RHS-only), so every lane keeps the
/// bit-identical stamp matrix that lets the batch share one LU
/// factorization — the same grouping dse's lanes hit.
fn build_lane(lane: usize) -> Transient {
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
    .expect("stacked netlist must build");
    for layer in 0..4 {
        for col in 0..4 {
            let sm = layer * 4 + col;
            sim.set_control(pdn.sm_load[layer][col], 6.0 + 0.4 * lane as f64 + 0.1 * sm as f64);
        }
    }
    sim
}

/// Per-lane wall cost (ns) of one batched circuit solve at each lane count.
/// Everything runs on the calling thread, so this measures the structural
/// win only: amortizing the shared factorization and SoA substitution
/// bookkeeping over N lanes on one core.
fn measure_lane_scaling() -> Vec<(usize, f64)> {
    let policy = RecoveryPolicy::default();
    let mut best = [f64::INFINITY; LANE_COUNTS.len()];
    // Trials interleave across lane counts so a slow stretch on a shared
    // host degrades every N alike instead of biasing one row.
    for _ in 0..LANE_TRIALS {
        for (slot, &n) in LANE_COUNTS.iter().enumerate() {
            let mut batch = BatchedTransient::new((0..n).map(build_lane).collect());
            for _ in 0..LANE_WARMUP_STEPS {
                batch.step_all(&policy);
            }
            let t0 = Instant::now();
            for _ in 0..LANE_MEASURED_STEPS {
                batch.step_all(&policy);
            }
            let per_lane = t0.elapsed().as_nanos() as f64 / (LANE_MEASURED_STEPS * n) as f64;
            best[slot] = best[slot].min(per_lane);
            let stats = batch.stats();
            assert_eq!(
                stats.mask_exits, 0,
                "lane-scaling loads must stay on the fast path: {stats:?}"
            );
            if n >= 2 {
                assert!(
                    stats.shared_factor_groups > 0,
                    "parameter-variant lanes no longer share factors: {stats:?}"
                );
            }
        }
    }
    LANE_COUNTS.iter().copied().zip(best).collect()
}

/// Guard: the batched SoA circuit solve behind dse's lockstep lanes must
/// get cheaper per lane as lanes are added. `BatchedTransient::step_all`
/// over N parameter-variant copies of the stacked netlist shares one
/// sparse LU factorization, so per-lane cost must fall strictly from
/// N = 1 to 2, 4 and 8; the benchmark's `vs-circuit.lane_ns.*` probes
/// record the same kernel.
fn bench_lane_scaling_guard() {
    let scaling = measure_lane_scaling();
    for (n, ns) in &scaling {
        println!("lane_scaling guard: lanes={n}: {ns:>8.1} ns per lane-solve");
    }
    for pair in scaling.windows(2) {
        let ((n_lo, ns_lo), (n_hi, ns_hi)) = (pair[0], pair[1]);
        assert!(
            ns_hi < ns_lo,
            "per-lane circuit solve must get cheaper with more lanes: \
             N={n_hi} costs {ns_hi:.1} ns but N={n_lo} costs {ns_lo:.1} ns"
        );
    }
}

/// Guard: the GPU model's per-cycle path must not allocate in steady state.
/// bfs keeps the DRAM channels busy, so an allocation per DRAM completion
/// shows here as about 0.26 allocations per cycle. After warm-up a window
/// of `Gpu::tick_into` cycles must stay under 0.01; what remains is map and
/// queue growth to new high-water marks.
fn bench_gpu_alloc_guard() {
    const MAX_ALLOCS_PER_CYCLE: f64 = 0.01;
    const WARMUP: u64 = 20_000;
    const WINDOW: u64 = 100_000;
    let cfg = GpuConfig::default();
    let kernel = build_kernel(&benchmark("bfs").expect("bfs profile"), &cfg, 1);
    let mut gpu = Gpu::new(&cfg, &kernel, SchedulerKind::Gto);
    let mut events = GpuCycleEvents::new();
    for _ in 0..WARMUP {
        gpu.tick_into(&mut events);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut cycles = 0u64;
    while cycles < WINDOW && !gpu.done() {
        gpu.tick_into(black_box(&mut events));
        cycles += 1;
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    let per_cycle = delta as f64 / cycles.max(1) as f64;
    println!(
        "gpu_tick_into bfs alloc guard: {delta} allocations over {cycles} cycles \
         ({per_cycle:.4}/cycle, limit {MAX_ALLOCS_PER_CYCLE})"
    );
    assert_eq!(cycles, WINDOW, "bfs finished inside the guarded window");
    assert!(
        per_cycle <= MAX_ALLOCS_PER_CYCLE,
        "bfs Gpu::tick_into allocated {per_cycle:.4} times per cycle \
         (limit {MAX_ALLOCS_PER_CYCLE}): the memory path allocates per cycle again"
    );
}

/// Guard: the disabled-telemetry instrumentation points threaded through the
/// co-simulation hot loop must stay branch-cheap. Each cosim cycle pays five
/// span start/stop pairs plus a couple of `is_enabled` checks; against a
/// multi-microsecond cycle (see `pds_rig_step` above) the whole bundle must
/// be noise. We time one cycle's worth of disabled instrumentation directly
/// and fail the bench if it exceeds `MAX_DISABLED_NS` — far below 2% of a
/// cycle, and loose enough not to flake on a busy machine.
fn bench_telemetry_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    let mut t = Telemetry::disabled();
    let mut measured = f64::INFINITY;
    bench("telemetry_disabled_per_cycle", || {
        for stage in Stage::ALL {
            let span = t.stages.start();
            black_box(&mut t).stages.stop(stage, span);
        }
        black_box(t.is_enabled());
        black_box(t.is_enabled());
    });
    // Re-measure outside `bench` (which only prints) for the assertion;
    // take the best of a few trials so scheduler noise cannot fail us.
    for _ in 0..5 {
        let iters = 100_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            for stage in Stage::ALL {
                let span = t.stages.start();
                black_box(&mut t).stages.stop(stage, span);
            }
            black_box(t.is_enabled());
            black_box(t.is_enabled());
        }
        measured = measured.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    println!("telemetry_disabled_per_cycle guard: best {measured:.1} ns (limit {MAX_DISABLED_NS} ns)");
    assert!(
        measured < MAX_DISABLED_NS,
        "disabled telemetry costs {measured:.1} ns per simulated cycle \
         (limit {MAX_DISABLED_NS} ns): the disabled path is no longer a branch"
    );
}

/// Guard: the executor tracing instrumentation in the task lifecycle must
/// be free when tracing is off. With the tracer disabled, every probe a
/// scenario task passes — the span-begin check, the gated executor metric
/// calls, the queue-depth gate — reduces to one relaxed atomic load each.
/// Same shape as the telemetry guard above: print via `bench`, assert on
/// the best of five direct trials.
fn bench_trace_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    obs::set_tracing(false);
    let task_probes = || {
        // One task's worth of disabled instrumentation: task + attempt
        // span begins, the ok-counter, the labeled wall histogram, and
        // the queue-depth gauge.
        black_box(obs::tracer().begin());
        black_box(obs::tracer().begin());
        obs::metric_inc("executor.tasks_ok", 1);
        obs::metric_observe_wall("executor.task_wall_s{scenario=bfs}", 0.5);
        obs::metric_gauge("executor.queue_depth", 0.0);
        black_box(obs::tracing_enabled());
    };
    bench("executor_tracing_disabled", task_probes);
    let mut measured = f64::INFINITY;
    for _ in 0..5 {
        let iters = 100_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            task_probes();
        }
        measured = measured.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    println!("executor_tracing_disabled guard: best {measured:.1} ns (limit {MAX_DISABLED_NS} ns)");
    assert!(
        measured < MAX_DISABLED_NS,
        "disabled executor tracing costs {measured:.1} ns per task \
         (limit {MAX_DISABLED_NS} ns): the disabled path is no longer a branch"
    );
}

fn main() {
    // `cargo bench` forwards a `--bench` flag; `cargo test --benches` runs
    // this binary with `--test` style flags. Only time things when actually
    // benchmarking so the test suite stays fast.
    let arg_test = std::env::args().any(|a| a == "--test");
    if arg_test {
        println!("perf: skipped under --test");
        return;
    }
    bench_circuit();
    bench_numerics();
    bench_gpu();
    bench_controller();
    bench_rig();
    bench_scalar_alloc_guard();
    bench_lane_scaling_guard();
    bench_gpu_alloc_guard();
    bench_telemetry_overhead();
    bench_trace_overhead();
}

//! Timing guards for the per-cycle hot paths, run by `cargo bench -p
//! vs-bench --bench perf`: the per-lane batched circuit solve must get
//! cheaper as lanes are added, and disabled telemetry and executor tracing
//! must stay a branch. Each guard times with `std::time::Instant`, keeps
//! the best of a few trials, and fails the bench when its bound is crossed.
//! Per-layer timings are recorded by the benchmark's traced mode
//! (`benchmark/LEDGER.md`); the allocation-count guards are tier-1 tests
//! in `crates/core/tests/zero_alloc.rs`.

use std::hint::black_box;
use std::time::Instant;

use vs_bench::Executor;
use vs_circuit::{BatchedTransient, Integration, RecoveryPolicy, Transient};
use vs_pds::{AreaModel, CrIvrConfig, PdnParams, StackedPdn};
use vs_telemetry::{Stage, Telemetry};

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

/// One lane: the cross-layer 0.2x stacked netlist dse's lanes step, with
/// per-lane SM load currents. Loads live on controlled current sources
/// (RHS-only), so every lane is a copy of one stamp matrix and the batch
/// shares one LU factorization — the same grouping dse's lanes hit.
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
                    stats.multi_lane_groups > 0,
                    "load-variant lanes no longer share a factorization: {stats:?}"
                );
            }
        }
    }
    LANE_COUNTS.iter().copied().zip(best).collect()
}

/// Guard: the batched SoA circuit solve behind dse's lockstep lanes must
/// get cheaper per lane as lanes are added. `BatchedTransient::step_all`
/// over N load-variant copies of one stacked stamp matrix shares one
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

/// Guard: the disabled-telemetry instrumentation points threaded through the
/// co-simulation hot loop must stay branch-cheap. Each cosim cycle pays five
/// span start/stop pairs plus a couple of `is_enabled` checks; against a
/// multi-microsecond cycle the whole bundle must be noise. We time one
/// cycle's worth of disabled instrumentation directly and fail the bench if
/// it exceeds `MAX_DISABLED_NS` — far below 2% of a cycle, and loose enough
/// not to flake on a busy machine.
fn bench_telemetry_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    let mut t = Telemetry::disabled();
    let mut measured = f64::INFINITY;
    // The best of a few trials, so scheduler noise cannot fail us.
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
/// be free when tracing is off. On an executor whose tracer is off (the
/// default), the probes a scenario task passes — the task and attempt
/// span begins (`tracer().begin()`, twice) and one `is_enabled()` gate —
/// each reduce to one relaxed atomic load. Same shape as the telemetry
/// guard above: assert on the best of five trials.
fn bench_trace_overhead() {
    const MAX_DISABLED_NS: f64 = 250.0;
    let exec = black_box(Executor::default());
    let task_probes = || {
        black_box(exec.tracer().begin());
        black_box(exec.tracer().begin());
        black_box(exec.tracer().is_enabled());
    };
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
    bench_lane_scaling_guard();
    bench_telemetry_overhead();
    bench_trace_overhead();
}

//! Steady-state stepping must perform **zero heap allocations per cycle**
//! — the acceptance bar for the co-simulation hot path, checked at each
//! layer it runs through: the transient solver, the scalar PDS rig, dse's
//! lockstep rig lanes, the GPU model, and the group loop that steps
//! several runs on one GPU trunk. A counting global allocator wraps the
//! system allocator; after
//! warm-up, a window of steps must leave the allocation counter untouched
//! (or, for the GPU model, under its per-cycle bound). The count is per
//! thread: the harness runs these tests concurrently, and a shared count
//! would charge one test's set-up allocations to another's measured window.
//!
//! The solver tests drive a miniature of the stacked power-delivery system
//! the co-simulation drives: a stacked source, per-layer decap + load
//! current sources (externally controlled), a charge-recycler ladder, an
//! inductive supply path, and a switch — every element kind the hot path
//! stamps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use vs_circuit::{
    Integration, LaneOutcome, Netlist, RecoveryPolicy, SolverWorkspace, Transient, Waveform,
};
use vs_control::ActuatorWeights;
use vs_core::{
    CosimConfig, CosimPool, CycleBudget, FaultPlan, GroupRun, PdsKind, PdsRig, PowerManagement,
    Ride, RigLanes, ScenarioId, SupervisorConfig,
};
use vs_gpu::{benchmark, build_kernel, Gpu, GpuConfig, GpuCycleEvents, SchedulerKind};

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because a thread may still allocate while its
    // thread-locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations carry over to the system
// allocator, and counting touches only a const-initialized thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this wrapper) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and our caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A two-layer stacked PDN in miniature, with externally controlled loads.
fn stacked_netlist() -> (Netlist, Vec<vs_circuit::ControlId>, vs_circuit::NodeId) {
    let mut net = Netlist::new();
    let top = net.node("top");
    let mid = net.node("mid");
    let sup = net.node("sup");
    net.voltage_source(sup, Netlist::GROUND, 2.0);
    net.inductor(sup, top, 1e-9);
    net.resistor(sup, top, 0.05);
    net.capacitor(top, mid, 1e-6);
    net.capacitor(mid, Netlist::GROUND, 1e-6);
    net.charge_recycler(top, mid, Netlist::GROUND, 5.0);
    net.switch(top, mid, 1e6, 1e9, false);
    net.current_source(
        top,
        mid,
        Waveform::Sine { offset: 0.4, amplitude: 0.1, freq_hz: 5e6, phase_rad: 0.0 },
    );
    let mut controls = Vec::new();
    let (_, c0) = net.controlled_current_source(top, mid);
    let (_, c1) = net.controlled_current_source(mid, Netlist::GROUND);
    controls.push(c0);
    controls.push(c1);
    (net, controls, top)
}

#[test]
fn steady_state_stepping_is_allocation_free() {
    let (net, controls, _) = stacked_netlist();
    let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    // Warm-up: first steps may lazily touch capacity.
    for i in 0..64 {
        let x = 0.3 + 0.05 * f64::from(i % 7);
        sim.set_control(controls[0], x);
        sim.set_control(controls[1], 0.5 - 0.04 * f64::from(i % 5));
        sim.step().unwrap();
    }
    let before = allocs();
    for i in 0..1_000 {
        let x = 0.3 + 0.05 * f64::from(i % 7);
        sim.set_control(controls[0], x);
        sim.set_control(controls[1], 0.5 - 0.04 * f64::from(i % 5));
        sim.step().unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state step() allocated {} times over 1000 cycles",
        after - before
    );
}

#[test]
fn recovery_wrapper_success_path_is_allocation_free() {
    let (net, controls, _) = stacked_netlist();
    let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    let policy = RecoveryPolicy::default();
    for _ in 0..64 {
        sim.set_control(controls[0], 0.4);
        sim.set_control(controls[1], 0.4);
        sim.step_with_recovery(&policy).unwrap();
    }
    let before = allocs();
    for _ in 0..1_000 {
        sim.step_with_recovery(&policy).unwrap();
    }
    assert_eq!(allocs() - before, 0, "recovery success path allocated");
}

#[test]
fn workspace_round_trip_reuses_buffers_and_dc_cache() {
    let (net, controls, top) = stacked_netlist();
    // First run warms the workspace (and populates the DC cache).
    let mut sim = Transient::new_in(&net, 1e-9, Integration::Trapezoidal, SolverWorkspace::new())
        .unwrap();
    sim.set_control(controls[0], 0.4);
    sim.run(16).unwrap();
    let v_first = sim.voltage(top);
    let ws = sim.into_workspace();
    assert_eq!(ws.dc_cache_hits(), 0);
    assert_eq!(ws.runs(), 1);

    // Second run through the same workspace: DC comes from cache, results
    // are bit-identical to a fresh solver.
    let mut reused = Transient::new_in(&net, 1e-9, Integration::Trapezoidal, ws).unwrap();
    let mut fresh = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    reused.set_control(controls[0], 0.4);
    fresh.set_control(controls[0], 0.4);
    reused.run(16).unwrap();
    fresh.run(16).unwrap();
    assert_eq!(reused.voltage(top), v_first);
    assert_eq!(reused.voltage(top), fresh.voltage(top));
    assert_eq!(reused.energy().resistive_loss_j, fresh.energy().resistive_loss_j);
    let ws = reused.into_workspace();
    assert_eq!(ws.dc_cache_hits(), 1);
    assert_eq!(ws.runs(), 2);
}

#[test]
fn warmed_refactor_is_allocation_free() {
    // Every refactor trigger in turn: a switch toggle, a timestep change
    // and an integration-method change. Each one restamps the system,
    // reorders and refactors the sparse LU, and rebuilds the step plans.
    let (mut net, controls, top) = stacked_netlist();
    let sw = net.switch(top, Netlist::GROUND, 1e6, 1e9, false);
    let mut sim = Transient::new(&net, 1e-9, Integration::Trapezoidal).unwrap();
    let cycle = |sim: &mut Transient, i: u32| {
        sim.set_switch(sw, i.is_multiple_of(2)).unwrap();
        let dt = if i.is_multiple_of(3) { 5e-10 } else { 1e-9 };
        sim.set_timestep(dt).unwrap();
        let method = if i.is_multiple_of(5) {
            Integration::BackwardEuler
        } else {
            Integration::Trapezoidal
        };
        sim.set_method(method).unwrap();
        sim.set_control(controls[0], 0.3 + 0.01 * f64::from(i % 7));
        sim.step().unwrap();
    };
    // Warm-up visits every combination, so each buffer reaches its size.
    for i in 0..30 {
        cycle(&mut sim, i);
    }
    let before = allocs();
    for i in 0..200 {
        cycle(&mut sim, i);
    }
    assert_eq!(allocs() - before, 0, "warmed refactors allocated");
}

/// The scalar rig hot path must stay allocation-free per cycle.
/// `PdsRig::step` is the composition `stage_loads` → `step_with_recovery` →
/// `finish_step` — the seams `RigLanes` hooks into — and splitting it must
/// not have introduced per-cycle heap traffic. Same bar as the solver tests
/// above, one layer up: warm the rig, then a window of steady-state steps
/// must leave the counting allocator untouched.
#[test]
fn scalar_rig_step_is_allocation_free() {
    let mut rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    for _ in 0..64 {
        rig.step(&p, &z, &z).expect("warm-up step");
    }
    let before = allocs();
    for _ in 0..1_000 {
        rig.step(black_box(&p), &z, &z).expect("guarded step");
    }
    let delta = allocs() - before;
    println!("scalar_rig_step alloc guard: {delta} allocations over 1000 cycles (limit 0)");
    assert_eq!(
        delta, 0,
        "scalar rig.step allocated {delta} times over 1000 cycles: \
         the stage_loads/step/finish_step split is no longer allocation-free"
    );
}

/// dse's lockstep lanes must not allocate per shared step either:
/// `RigLanes::step` stages each live lane, steps them all through one
/// `step_lanes_with_recovery` call and books the accepted steps. Four
/// cross-layer rigs of one netlist share one factorization, so the window
/// runs the multi-lane SoA solve, as dse's tails do.
#[test]
fn rig_lanes_step_is_allocation_free() {
    let rig = PdsRig::new(PdsKind::VsCrossLayer { area_mult: 0.2 }, 1.0 / 700e6, 0.08);
    let mut lanes = RigLanes::new(vec![rig; 4]);
    let p = vec![8.0; 16];
    let z = vec![0.0; 16];
    for _ in 0..64 {
        lanes.step(|_| (&p, &z, &z));
    }
    let before = allocs();
    for _ in 0..1_000 {
        let outcomes = lanes.step(|_| (black_box(&p), &z, &z));
        assert!(
            outcomes.iter().all(LaneOutcome::advanced),
            "every lane steps"
        );
    }
    let delta = allocs() - before;
    println!("rig_lanes_step alloc guard: {delta} allocations over 1000 shared steps (limit 0)");
    assert_eq!(
        delta, 0,
        "RigLanes::step allocated {delta} times over 1000 shared steps"
    );
    assert!(
        lanes.stats().multi_lane_groups > 0,
        "the lanes shared their solves"
    );
}

/// The GPU model's per-cycle path must not allocate in steady state.
/// bfs keeps the DRAM channels busy, so an allocation per DRAM completion
/// shows here as about 0.26 allocations per cycle. After warm-up a window
/// of `Gpu::tick_into` cycles must stay under 0.01; what remains is queue
/// and slab growth to new high-water marks.
#[test]
fn gpu_tick_into_bfs_stays_under_its_allocation_bound() {
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
    let before = allocs();
    let mut cycles = 0u64;
    while cycles < WINDOW && !gpu.done() {
        gpu.tick_into(black_box(&mut events));
        cycles += 1;
    }
    let delta = allocs() - before;
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

/// A group's shared cycle must not allocate either: one trunk tick, then
/// each member's power model, circuit solve, controller and the fork
/// rule's control comparison. Two runs of the same two-member group differ
/// only in where both members' watchdogs trip, so the difference of their
/// allocation counts is what the cycles between the two trip points
/// allocated (the GPU model's queues and token slabs grow only at new
/// high-water marks, which two identical runs reach in the same cycles, so
/// they allocate identically). The members are a conventional
/// run and a cross-layer run with DCC-only weights, whose controller acts
/// on the circuit alone, so both ride the trunk through the window.
#[test]
fn shared_group_cycle_is_allocation_free() {
    const WARMUP: u64 = 2_000;
    const WINDOW: u64 = 2_000;
    let profile = ScenarioId::Heartwall.profile();
    let sup = SupervisorConfig::default();
    let runs = |trip: u64| -> Vec<GroupRun> {
        let base = CosimConfig {
            workload_scale: 0.05,
            ..CosimConfig::default()
        };
        [
            CosimConfig { pds: PdsKind::ConventionalVrm, ..base.clone() },
            CosimConfig { weights: ActuatorWeights::DCC_ONLY, ..base },
        ]
        .map(|cfg| GroupRun {
            cfg,
            pm: PowerManagement::default(),
            budget: CycleBudget::tripping_at(trip),
            plan: FaultPlan::none(),
        })
        .to_vec()
    };
    let mut pool = CosimPool::new();
    // Warm-up: the pool's two workspaces reach their sizes.
    pool.run_group(&profile, &runs(WARMUP), &sup);
    let mut counted = |trip: u64| {
        let runs = runs(trip);
        let before = allocs();
        let outcome = pool.run_group(&profile, &runs, &sup);
        let delta = allocs() - before;
        assert_eq!(outcome.rides, [Ride::Shared, Ride::Shared], "both ride the trunk");
        assert_eq!(outcome.stats.gpu_ticks, trip, "one tick per shared cycle");
        for r in &outcome.reports {
            assert_eq!(r.report.cycles, trip, "both stop at the trip");
        }
        delta
    };
    let short = counted(WARMUP);
    let long = counted(WARMUP + WINDOW);
    let delta = long.saturating_sub(short);
    println!(
        "shared group cycle alloc guard: {delta} allocations over {WINDOW} cycles \
         ({short} for the run to {WARMUP}, {long} to {}; limit 0)",
        WARMUP + WINDOW
    );
    assert_eq!(
        long, short,
        "a two-member group allocated {delta} times over {WINDOW} shared cycles"
    );
}

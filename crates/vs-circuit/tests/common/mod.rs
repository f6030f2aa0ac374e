//! Shared harness for the batched-solver test suite: a parameter-variant
//! miniature of the stacked PDN rig, seeded parameter/control schedules
//! (`derive_seed`-style, mirroring `vs_core::derive_seed` — this crate sits
//! below `vs-core`, so the few lines are inlined), and a bitwise trajectory
//! recorder.

#![allow(dead_code)]

use vs_circuit::{ControlId, Integration, Netlist, NodeId, Transient, Waveform};

/// FNV-1a fold + SplitMix64 finalizer, the same construction as
/// `vs_core::derive_seed`.
pub fn derive_seed(base: u64, domain: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    for b in domain.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix(h)
}

/// One SplitMix64 step; also the per-draw generator for the schedules.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a seed (stateless: hash the inputs).
pub fn unit(seed: u64) -> f64 {
    (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// The nominal timestep every variant runs at.
pub const DT: f64 = 1e-9;

/// Parameters of one rig variant. `decap_scale`/`recycler_g` perturb element
/// values (different netlist fingerprint, hence its own factorization and a
/// singleton solve); `extra_strap` adds a resistor (different structure
/// entirely); the control schedule always varies by variant.
#[derive(Debug, Clone, Copy)]
pub struct VariantSpec {
    pub decap_scale: f64,
    pub recycler_g: f64,
    pub load_offset: f64,
    pub extra_strap: bool,
    /// Seed folded into the per-step control schedule.
    pub schedule_seed: u64,
}

impl VariantSpec {
    /// A variant that differs from the batch only in its control schedule
    /// (identical netlist ⇒ shared-factor fast path).
    pub fn control_only(seed: u64, i: u64) -> Self {
        VariantSpec {
            decap_scale: 1.0,
            recycler_g: 5.0,
            load_offset: 0.4,
            extra_strap: false,
            schedule_seed: derive_seed(seed, "schedule").wrapping_add(i),
        }
    }

    /// A variant with perturbed element values (its own numeric LU, so it
    /// solves alone).
    pub fn value_variant(seed: u64, i: u64) -> Self {
        let s = derive_seed(seed, "values").wrapping_add(i.wrapping_mul(0x9e37));
        VariantSpec {
            decap_scale: 0.85 + 0.3 * unit(s),
            recycler_g: 3.5 + 3.0 * unit(s ^ 1),
            load_offset: 0.3 + 0.2 * unit(s ^ 2),
            extra_strap: false,
            schedule_seed: derive_seed(seed, "schedule").wrapping_add(i),
        }
    }

    /// A topology variant: an extra strap resistor changes the sparsity
    /// pattern, so this lane can never share a solve.
    pub fn topology_variant(seed: u64, i: u64) -> Self {
        let mut v = Self::value_variant(seed, i);
        v.extra_strap = true;
        v
    }
}

/// A built variant: the solver plus the handles the recorder needs.
pub struct Rig {
    pub sim: Transient,
    pub controls: Vec<ControlId>,
    pub top: NodeId,
    pub mid: NodeId,
}

/// Builds the two-layer miniature stacked PDN (same shape as the zero-alloc
/// hot-path test: stacked source, inductive supply, per-layer decap +
/// controlled loads, recycler ladder) for one variant.
pub fn build_rig(spec: &VariantSpec) -> Rig {
    let mut net = Netlist::new();
    let top = net.node("top");
    let mid = net.node("mid");
    let sup = net.node("sup");
    net.voltage_source(sup, Netlist::GROUND, 2.0);
    net.inductor(sup, top, 1e-9);
    net.resistor(sup, top, 0.05);
    net.capacitor(top, mid, 1e-6 * spec.decap_scale);
    net.capacitor(mid, Netlist::GROUND, 1e-6 * spec.decap_scale);
    net.charge_recycler(top, mid, Netlist::GROUND, spec.recycler_g);
    net.current_source(
        top,
        mid,
        Waveform::Sine {
            offset: spec.load_offset,
            amplitude: 0.1,
            freq_hz: 5e6,
            phase_rad: 0.0,
        },
    );
    if spec.extra_strap {
        // An extra filtered strap node changes the system dimension, so this
        // variant can never share a solve with the others.
        let strap = net.node("strap");
        net.resistor(sup, strap, 0.5);
        net.capacitor(strap, Netlist::GROUND, 1e-7);
    }
    let (_, c0) = net.controlled_current_source(top, mid);
    let (_, c1) = net.controlled_current_source(mid, Netlist::GROUND);
    let sim = Transient::new(&net, DT, Integration::Trapezoidal).expect("variant rig builds");
    Rig { sim, controls: vec![c0, c1], top, mid }
}

/// The deterministic per-step control value for a variant: bounded, well
/// away from divergence, different for every (variant, control, step).
pub fn control_value(spec: &VariantSpec, ctrl: usize, step: u64) -> f64 {
    let s = spec
        .schedule_seed
        .wrapping_add(step.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .wrapping_add(ctrl as u64);
    0.25 + 0.3 * unit(s)
}

/// Applies the schedule for `step` to a rig's controls.
pub fn apply_controls(rig: &mut Rig, spec: &VariantSpec, step: u64) {
    for (k, &c) in rig.controls.iter().enumerate() {
        rig.sim.set_control(c, control_value(spec, k, step));
    }
}

/// Appends the lane's observable state to a bitwise trajectory: time, two
/// node voltages, and the four energy categories. Equal vectors ⇒ the lane
/// took a bit-identical path.
pub fn record(traj: &mut Vec<u64>, rig: &Rig) {
    let e = rig.sim.energy();
    for v in [
        rig.sim.time(),
        rig.sim.voltage(rig.top),
        rig.sim.voltage(rig.mid),
        e.resistive_loss_j,
        e.source_delivered_j,
        e.load_absorbed_j,
        e.recycler_loss_j,
    ] {
        traj.push(v.to_bits());
    }
}

//! Property: lane placement is invisible. Shuffling which lane a parameter
//! variant occupies must never change that variant's trajectory **bytes** —
//! any difference means the SoA layout bled state across lanes or the
//! grouping order leaked into the arithmetic.

mod common;

use common::{build_rig, control_value, derive_seed, splitmix, VariantSpec};
use vs_circuit::{BatchedTransient, RecoveryPolicy, Transient};

const STEPS: u64 = 40;
const SHUFFLES: usize = 6;

/// Deterministic Fisher–Yates driven by a SplitMix64 stream.
fn shuffle(perm: &mut [usize], mut state: u64) {
    for i in (1..perm.len()).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
}

/// NaN fault schedule attached to the *variant*, not the lane, so the fault
/// follows the variant through every permutation.
fn inject(variant: usize, step: u64) -> Option<f64> {
    match (variant, step) {
        (1, 9) | (4, 21) | (6, 33) => Some(f64::NAN),
        _ => None,
    }
}

/// Runs the variants with `perm[lane] = variant` and returns each
/// *variant's* trajectory (indexed by variant, not lane).
fn run_permuted(specs: &[VariantSpec], perm: &[usize]) -> Vec<Vec<u64>> {
    let policy = RecoveryPolicy::default();
    let mut handles = Vec::new();
    let mut lanes: Vec<Transient> = Vec::new();
    for &v in perm {
        let rig = build_rig(&specs[v]);
        handles.push((rig.controls, rig.top, rig.mid));
        lanes.push(rig.sim);
    }
    let mut batch = BatchedTransient::new(lanes);
    let mut by_variant = vec![Vec::new(); specs.len()];
    for step in 0..STEPS {
        for (lane, &v) in perm.iter().enumerate() {
            if !batch.is_active(lane) {
                continue;
            }
            let (controls, _, _) = &handles[lane];
            for (k, &c) in controls.iter().enumerate() {
                batch.lane_mut(lane).set_control(c, control_value(&specs[v], k, step));
            }
            if let Some(x) = inject(v, step) {
                batch.lane_mut(lane).set_control(controls[0], x);
            }
        }
        batch.step_all(&policy);
        for (lane, &v) in perm.iter().enumerate() {
            let sim = batch.lane(lane);
            let (_, top, mid) = handles[lane];
            let e = sim.energy();
            for x in [
                sim.time(),
                sim.voltage(top),
                sim.voltage(mid),
                e.resistive_loss_j,
                e.source_delivered_j,
                e.load_absorbed_j,
                e.recycler_loss_j,
            ] {
                by_variant[v].push(x.to_bits());
            }
        }
    }
    by_variant
}

#[test]
fn lane_permutation_never_changes_a_variants_trajectory() {
    let seed = derive_seed(0x9E12, "lane-permutation");
    // A deliberately heterogeneous population: three lanes that share one
    // factorization, and value and structure outliers that solve alone —
    // so shuffles move variants in and out of group-leader position,
    // across group boundaries, and between SoA columns.
    let mut specs: Vec<VariantSpec> = Vec::new();
    specs.extend((0..3u64).map(|i| VariantSpec::control_only(seed, i)));
    specs.extend((3..6u64).map(|i| VariantSpec::value_variant(seed, i)));
    specs.extend((6..8u64).map(|i| VariantSpec::topology_variant(seed, i)));

    let identity: Vec<usize> = (0..specs.len()).collect();
    let reference = run_permuted(&specs, &identity);

    let mut perm = identity.clone();
    for round in 0..SHUFFLES {
        shuffle(&mut perm, seed.wrapping_add(round as u64));
        let shuffled = run_permuted(&specs, &perm);
        for v in 0..specs.len() {
            assert_eq!(
                shuffled[v], reference[v],
                "variant {v} changed trajectory when placed at lane \
                 {} (shuffle {round}, perm {perm:?})",
                perm.iter().position(|&p| p == v).unwrap(),
            );
        }
    }
}

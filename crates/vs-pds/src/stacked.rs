//! The 4x4 voltage-stacked PDN netlist (paper Fig. 1(c)).
//!
//! A single 4.1 V board source feeds the die top through board and package
//! parasitics; SMs are stacked four layers deep in four columns, each SM a
//! controlled current source across its layer span with local decoupling
//! capacitance. Lateral grid resistors tie columns together at each internal
//! stack level. Optional CR-IVR stages (averaged charge recyclers) and DCC
//! ballast current DACs complete the cross-layer hardware.

use vs_circuit::{ControlId, ElementId, Netlist, NodeId, Transient};

use crate::area::AreaModel;
use crate::crivr::CrIvrConfig;
use crate::params::PdnParams;

/// A built voltage-stacked PDN with handles for co-simulation.
#[derive(Debug, Clone)]
pub struct StackedPdn {
    /// The netlist (feed to [`vs_circuit::Transient`] or
    /// [`vs_circuit::AcAnalysis`]).
    pub netlist: Netlist,
    /// Topology parameters it was built with.
    pub params: PdnParams,
    /// SM load controls, `[layer][column]` (amperes, set each cycle).
    pub sm_load: Vec<Vec<ControlId>>,
    /// SM load elements, `[layer][column]` (for energy accounting).
    pub sm_load_elems: Vec<Vec<ElementId>>,
    /// DCC ballast controls, `[layer][column]`.
    pub dcc: Vec<Vec<ControlId>>,
    /// DCC ballast elements, `[layer][column]`.
    pub dcc_elems: Vec<Vec<ElementId>>,
    /// Top node of each SM's span, `[layer][column]`.
    pub sm_top: Vec<Vec<NodeId>>,
    /// Bottom node of each SM's span, `[layer][column]`.
    pub sm_bottom: Vec<Vec<NodeId>>,
    /// The die-top supply node.
    pub die_top: NodeId,
    /// The die ground node (above the return-path parasitics).
    pub die_gnd: NodeId,
    /// The board source element (for delivered-energy accounting).
    pub source: ElementId,
    /// Elements whose dissipation counts as PDN loss (parasitics).
    pub pdn_resistors: Vec<ElementId>,
    /// CR-IVR recycler elements (their dissipation is conversion loss).
    pub recyclers: Vec<ElementId>,
}

impl StackedPdn {
    /// Builds the stacked PDN. Pass `None` to omit the CR-IVR entirely
    /// (used by the Fig. 3(a) impedance analysis).
    pub fn build(params: &PdnParams, crivr: Option<(&CrIvrConfig, &AreaModel)>) -> Self {
        params.validate();
        let mut net = Netlist::new();
        let nl = params.n_layers;
        let nc = params.n_columns;

        // Supply path: board -> package -> die top.
        let pcb = net.node("pcb");
        let die_top = net.node("die_top");
        let die_gnd = net.node("die_gnd");
        let src_pos = net.node("src");
        let source = net.voltage_source(src_pos, Netlist::GROUND, params.vdd_stack);
        let mut pdn_resistors = Vec::new();
        // Series supply path: src -R_board-> pcb -R_pkg-> pkg_mid -L-> die_top.
        pdn_resistors.push(net.resistor(src_pos, pcb, params.r_board));
        let mid = net.node("pkg_mid");
        pdn_resistors.push(net.resistor(pcb, mid, params.r_pkg));
        net.inductor(mid, die_top, params.l_board + params.l_pkg);
        net.capacitor(pcb, Netlist::GROUND, params.c_board);
        // Series ground return: die_gnd -R_gnd-> gnd_mid -L_gnd-> GROUND.
        let gnd_mid = net.node("gnd_mid");
        pdn_resistors.push(net.resistor(die_gnd, gnd_mid, params.r_gnd));
        net.inductor(gnd_mid, Netlist::GROUND, params.l_gnd);

        // Internal stack level nodes, per column: levels 1..nl-1.
        // level 0 = die_gnd, level nl = die_top.
        let mut level_nodes: Vec<Vec<NodeId>> = Vec::new(); // [level-1][col]
        for level in 1..nl {
            let mut row = Vec::new();
            for col in 0..nc {
                row.push(net.node(format!("l{level}c{col}")));
            }
            level_nodes.push(row);
        }
        let node_at = |level: usize, col: usize| -> NodeId {
            if level == 0 {
                die_gnd
            } else if level == nl {
                die_top
            } else {
                level_nodes[level - 1][col]
            }
        };

        // Lateral grid resistors between adjacent columns at internal
        // levels, plus the node-to-substrate parasitic capacitance that
        // makes the stack component of load current visible (Fig. 3).
        for level in 1..nl {
            for col in 0..nc - 1 {
                net.resistor(node_at(level, col), node_at(level, col + 1), params.r_lateral);
            }
            for col in 0..nc {
                net.capacitor(node_at(level, col), die_gnd, params.c_node_gnd);
            }
        }

        // SM loads, decap, and DCC per (layer, column). Layer `l` spans
        // level l+1 (top) to level l (bottom), l = 0..nl-1.
        let mut sm_load = Vec::new();
        let mut sm_load_elems = Vec::new();
        let mut dcc = Vec::new();
        let mut dcc_elems = Vec::new();
        let mut sm_top = Vec::new();
        let mut sm_bottom = Vec::new();
        for layer in 0..nl {
            let mut loads = Vec::new();
            let mut load_elems = Vec::new();
            let mut dccs = Vec::new();
            let mut dcc_es = Vec::new();
            let mut tops = Vec::new();
            let mut bottoms = Vec::new();
            for col in 0..nc {
                let level_top = node_at(layer + 1, col);
                let level_bottom = node_at(layer, col);
                net.capacitor(level_top, level_bottom, params.c_layer);
                // SM terminals sit behind the local power grid.
                let top = net.node(format!("sm{layer}_{col}t"));
                let bottom = net.node(format!("sm{layer}_{col}b"));
                pdn_resistors.push(net.resistor(level_top, top, params.r_sm_grid));
                pdn_resistors.push(net.resistor(bottom, level_bottom, params.r_sm_grid));
                let (load_elem, load) = net.controlled_current_source(top, bottom);
                // DCC ballast DACs live next to the CR-IVR at the level
                // nodes, not behind the SM grid.
                let (dcc_elem, ballast) = net.controlled_current_source(level_top, level_bottom);
                loads.push(load);
                load_elems.push(load_elem);
                dccs.push(ballast);
                dcc_es.push(dcc_elem);
                tops.push(top);
                bottoms.push(bottom);
            }
            sm_load.push(loads);
            sm_load_elems.push(load_elems);
            dcc.push(dccs);
            dcc_elems.push(dcc_es);
            sm_top.push(tops);
            sm_bottom.push(bottoms);
        }

        // CR-IVR ladders. `n_sub_ivrs` selects the physical distribution
        // (Fig. 2): with 4 sub-IVRs every column gets a ladder next to its
        // SMs; a lumped design concentrates the same total conductance on
        // fewer columns and relies on the lateral grid to spread it.
        let mut recyclers = Vec::new();
        if let Some((cfg, area_model)) = crivr {
            let covered = cfg.n_sub_ivrs.clamp(1, nc);
            let g_stage = cfg.total_conductance(area_model) / covered as f64;
            if g_stage > 0.0 {
                for col in 0..covered {
                    for l in 1..nl {
                        recyclers.push(net.charge_recycler(
                            node_at(l + 1, col),
                            node_at(l, col),
                            node_at(l - 1, col),
                            g_stage,
                        ));
                    }
                }
            }
        }

        StackedPdn {
            netlist: net,
            params: *params,
            sm_load,
            sm_load_elems,
            dcc,
            dcc_elems,
            sm_top,
            sm_bottom,
            die_top,
            die_gnd,
            source,
            pdn_resistors,
            recyclers,
        }
    }

    /// Number of columns that carry a CR-IVR ladder (`n_sub_ivrs` clamped to
    /// the column count; 0 when the PDN was built without a CR-IVR).
    pub fn n_recycler_columns(&self) -> usize {
        let stages = self.params.n_layers - 1;
        self.recyclers.len().checked_div(stages).unwrap_or(0)
    }

    /// The recycler elements of one column's CR-IVR ladder, bottom stage
    /// first. Empty when the column has no ladder (lumped designs cover only
    /// the first `n_recycler_columns` columns).
    ///
    /// `build` pushes `n_layers - 1` stages per covered column, column-major,
    /// which is the layout this slices.
    pub fn column_recyclers(&self, column: usize) -> &[ElementId] {
        let stages = self.params.n_layers - 1;
        let start = column * stages;
        if stages == 0 || start >= self.recyclers.len() {
            &[]
        } else {
            &self.recyclers[start..start + stages]
        }
    }

    /// Voltage across SM `(layer, column)` in a running transient.
    pub fn sm_voltage(&self, sim: &Transient, layer: usize, col: usize) -> f64 {
        sim.voltage(self.sm_top[layer][col]) - sim.voltage(self.sm_bottom[layer][col])
    }

    /// Balanced initial node voltages (layer voltages evenly divided) for
    /// starting a transient at the stacked equilibrium.
    pub fn balanced_initial_state(&self) -> (Vec<f64>, Vec<f64>) {
        let nl = self.params.n_layers;
        let v_layer = self.params.vdd_stack / nl as f64;
        let mut voltages = vec![0.0; self.netlist.n_nodes()];
        // Node order must match build(): pcb, die_top, die_gnd, src, pkg_mid,
        // gnd_mid, then level nodes.
        voltages[1] = self.params.vdd_stack; // pcb
        voltages[2] = self.params.vdd_stack; // die_top
        voltages[3] = 0.0; // die_gnd
        voltages[4] = self.params.vdd_stack; // src
        voltages[5] = self.params.vdd_stack; // pkg_mid
        voltages[6] = 0.0; // gnd_mid
        let mut idx = 7;
        for level in 1..nl {
            for _col in 0..self.params.n_columns {
                voltages[idx] = v_layer * level as f64;
                idx += 1;
            }
        }
        // SM terminal nodes, created layer-major after the level nodes.
        for layer in 0..nl {
            for _col in 0..self.params.n_columns {
                voltages[idx] = v_layer * (layer + 1) as f64; // top terminal
                voltages[idx + 1] = v_layer * layer as f64; // bottom terminal
                idx += 2;
            }
        }
        let n_g2 = self.netlist_group2_len();
        (voltages, vec![0.0; n_g2])
    }

    fn netlist_group2_len(&self) -> usize {
        self.netlist
            .elements()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    vs_circuit::Element::VoltageSource { .. } | vs_circuit::Element::Inductor { .. }
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_circuit::Integration;

    fn build_default(crivr_mult: Option<f64>) -> StackedPdn {
        let params = PdnParams::default();
        let am = AreaModel::default();
        match crivr_mult {
            Some(m) => {
                let cfg = CrIvrConfig::sized_by_gpu_area(m, &am);
                StackedPdn::build(&params, Some((&cfg, &am)))
            }
            None => StackedPdn::build(&params, None),
        }
    }

    fn run_balanced(pdn: &StackedPdn, amps_per_sm: f64, steps: usize) -> Transient {
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
                sim.set_control(pdn.sm_load[layer][col], amps_per_sm);
            }
        }
        for _ in 0..steps {
            sim.step().unwrap();
        }
        sim
    }

    #[test]
    fn balanced_load_divides_voltage_evenly() {
        let pdn = build_default(Some(0.2));
        let sim = run_balanced(&pdn, 8.0, 20_000);
        for layer in 0..4 {
            for col in 0..4 {
                let v = pdn.sm_voltage(&sim, layer, col);
                assert!(
                    (v - 1.025).abs() < 0.03,
                    "SM({layer},{col}) at {v} V under balanced load"
                );
            }
        }
    }

    #[test]
    fn imbalance_without_crivr_diverges() {
        let pdn = build_default(None);
        let (v0, g2) = pdn.balanced_initial_state();
        let mut sim = Transient::with_initial_state(
            &pdn.netlist,
            1.0 / 700e6,
            Integration::Trapezoidal,
            &v0,
            &g2,
        )
        .unwrap();
        // Layer 0 heavily loaded, others light.
        for layer in 0..4 {
            for col in 0..4 {
                let amps = if layer == 0 { 10.0 } else { 2.0 };
                sim.set_control(pdn.sm_load[layer][col], amps);
            }
        }
        for _ in 0..50_000 {
            sim.step().unwrap();
        }
        let v_heavy = pdn.sm_voltage(&sim, 0, 0);
        let v_light = pdn.sm_voltage(&sim, 3, 0);
        assert!(
            v_light - v_heavy > 0.5,
            "imbalance must skew layer voltages: {v_heavy} vs {v_light}"
        );
    }

    #[test]
    fn crivr_restores_layer_voltages_under_imbalance() {
        let pdn = build_default(Some(2.0));
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
                let amps = if layer == 0 { 10.0 } else { 2.0 };
                sim.set_control(pdn.sm_load[layer][col], amps);
            }
        }
        for _ in 0..50_000 {
            sim.step().unwrap();
        }
        let v_heavy = pdn.sm_voltage(&sim, 0, 0);
        assert!(
            v_heavy > 0.8,
            "a 2x CR-IVR must hold the heavy layer above 0.8 V, got {v_heavy}"
        );
        // The recyclers burn conversion loss while shuffling the imbalance.
        assert!(sim.energy().recycler_loss_j > 0.0);
    }

    #[test]
    fn dcc_ballast_raises_its_layer_current() {
        let pdn = build_default(Some(0.2));
        let (v0, g2) = pdn.balanced_initial_state();
        let mut sim = Transient::with_initial_state(
            &pdn.netlist,
            1.0 / 700e6,
            Integration::Trapezoidal,
            &v0,
            &g2,
        )
        .unwrap();
        // Underloaded layer 3; ballast compensates.
        for layer in 0..4 {
            for col in 0..4 {
                let amps = if layer == 3 { 2.0 } else { 8.0 };
                sim.set_control(pdn.sm_load[layer][col], amps);
                if layer == 3 {
                    sim.set_control(pdn.dcc[layer][col], 6.0);
                }
            }
        }
        for _ in 0..30_000 {
            sim.step().unwrap();
        }
        for layer in 0..4 {
            let v = pdn.sm_voltage(&sim, layer, 0);
            assert!((v - 1.025).abs() < 0.1, "layer {layer} at {v} with DCC ballast");
        }
    }

    #[test]
    fn lumped_crivr_serves_remote_imbalance_worse() {
        let run = |n_sub_ivrs: usize| {
            let params = PdnParams::default();
            let am = AreaModel::default();
            let cfg = CrIvrConfig {
                n_sub_ivrs,
                ..CrIvrConfig::sized_by_gpu_area(1.0, &am)
            };
            let pdn = StackedPdn::build(&params, Some((&cfg, &am)));
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
                    let amps = if layer == 0 && col == 3 { 12.0 } else { 8.0 };
                    sim.set_control(pdn.sm_load[layer][col], amps);
                }
            }
            for _ in 0..40_000 {
                sim.step().unwrap();
            }
            pdn.sm_voltage(&sim, 0, 3)
        };
        let distributed = run(4);
        let lumped = run(1);
        assert!(
            distributed > lumped + 0.01,
            "distribution must help the far column: {distributed} vs {lumped}"
        );
    }

    #[test]
    fn column_recycler_slices_partition_the_ladder() {
        let pdn = build_default(Some(0.2));
        // 4 sub-IVRs on a 4-column, 4-layer stack: 3 stages per column.
        assert_eq!(pdn.n_recycler_columns(), 4);
        let mut seen = Vec::new();
        for col in 0..4 {
            let stages = pdn.column_recyclers(col);
            assert_eq!(stages.len(), 3, "column {col}");
            seen.extend_from_slice(stages);
        }
        assert_eq!(seen, pdn.recyclers);
        assert!(pdn.column_recyclers(7).is_empty());
        let bare = build_default(None);
        assert_eq!(bare.n_recycler_columns(), 0);
        assert!(bare.column_recyclers(0).is_empty());
    }

    #[test]
    fn pdn_loss_is_small_fraction_at_stack_voltage() {
        let pdn = build_default(Some(0.2));
        let sim = run_balanced(&pdn, 8.0, 20_000);
        let e = sim.energy();
        let pdn_loss: f64 = pdn
            .pdn_resistors
            .iter()
            .map(|id| sim.element_absorbed_j(*id))
            .sum();
        // High-voltage delivery: board/package loss is tiny; the residual
        // is the local SM grid drop (which the conventional PDS pays too).
        assert!(pdn_loss > 0.0);
        assert!(
            pdn_loss / e.source_delivered_j < 0.04,
            "loss fraction {}",
            pdn_loss / e.source_delivered_j
        );
    }
}

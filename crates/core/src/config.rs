//! Co-simulation configuration: which PDS is under test and how the
//! cross-layer machinery is parameterized.

use std::fmt;
use std::str::FromStr;

use vs_control::{ActuatorWeights, ControllerConfig, DetectorKind};
use vs_pds::PdnParams;

/// Stack geometry: how the SMs are arranged as series layers × parallel
/// columns. The paper evaluates 4×4; the design-space sweeps also cover the
/// shallower 2×8 and deeper 8×2 arrangements of the same 16 SMs.
///
/// Parses from / displays as the compact `LxC` form (`4x4`, `2x8`), the
/// vocabulary the `ConfigPoint` sweep grammar shares with CLIs and
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackGeometry {
    /// Number of stacked layers in series.
    pub n_layers: u32,
    /// SM columns per layer.
    pub n_columns: u32,
}

impl StackGeometry {
    /// The paper's 4-layer × 4-column arrangement.
    pub const PAPER: StackGeometry = StackGeometry { n_layers: 4, n_columns: 4 };

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate arrangement (< 2 layers or < 1 column):
    /// voltage stacking needs at least two series layers.
    pub fn new(n_layers: u32, n_columns: u32) -> Self {
        assert!(n_layers >= 2, "voltage stacking needs >= 2 series layers");
        assert!(n_columns >= 1, "need >= 1 column");
        StackGeometry { n_layers, n_columns }
    }

    /// Total SM count.
    pub fn n_sms(&self) -> u32 {
        self.n_layers * self.n_columns
    }

    /// The electrical parameters for this arrangement: calibrated defaults
    /// with the board supply scaled so each layer sees the nominal 1.025 V
    /// share (bit-identical to [`PdnParams::default`] at 4×4).
    pub fn pdn_params(&self) -> PdnParams {
        PdnParams::with_geometry(self.n_layers as usize, self.n_columns as usize)
    }

    /// Appends this value's stable identity key (both fields, in order).
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        let StackGeometry { n_layers, n_columns } = *self;
        out.extend([u64::from(n_layers), u64::from(n_columns)]);
    }
}

impl Default for StackGeometry {
    fn default() -> Self {
        StackGeometry::PAPER
    }
}

impl fmt::Display for StackGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.n_layers, self.n_columns)
    }
}

/// Error for a malformed [`StackGeometry`] word (expected `LxC`, L ≥ 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGeometryError {
    /// The rejected input.
    pub text: String,
}

impl fmt::Display for ParseGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad stack geometry {:?}: expected LxC with L >= 2 layers and C >= 1 \
             columns (e.g. 4x4, 2x8, 8x2)",
            self.text
        )
    }
}

impl std::error::Error for ParseGeometryError {}

impl FromStr for StackGeometry {
    type Err = ParseGeometryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseGeometryError { text: s.to_string() };
        let (l, c) = s.split_once('x').ok_or_else(err)?;
        let n_layers: u32 = l.parse().map_err(|_| err())?;
        let n_columns: u32 = c.parse().map_err(|_| err())?;
        if n_layers < 2 || n_columns < 1 {
            return Err(err());
        }
        Ok(StackGeometry { n_layers, n_columns })
    }
}

/// The four power-delivery-subsystem configurations compared in the paper
/// (Table III / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PdsKind {
    /// Conventional single-layer PDS with a board-level step-down VRM.
    ConventionalVrm,
    /// Single-layer PDS with an on-chip IVR (power crosses the PDN at a
    /// higher voltage, conversion happens at the point of load).
    SingleLayerIvr,
    /// Voltage stacking with a CR-IVR sized to handle the worst case alone.
    VsCircuitOnly {
        /// CR-IVR area as a multiple of the GPU die (paper: 1.72x needed).
        area_mult: f64,
    },
    /// The paper's cross-layer design: a small CR-IVR plus the
    /// control-theory voltage-smoothing loop.
    VsCrossLayer {
        /// CR-IVR area as a multiple of the GPU die (paper: 0.2x).
        area_mult: f64,
    },
}

impl PdsKind {
    /// True for the two voltage-stacked variants.
    pub fn is_stacked(&self) -> bool {
        matches!(self, PdsKind::VsCircuitOnly { .. } | PdsKind::VsCrossLayer { .. })
    }

    /// True when the architecture-level voltage-smoothing loop is active.
    pub fn has_controller(&self) -> bool {
        matches!(self, PdsKind::VsCrossLayer { .. })
    }

    /// Display name matching the paper's labels.
    pub fn label(&self) -> &'static str {
        match self {
            PdsKind::ConventionalVrm => "single-layer VRM",
            PdsKind::SingleLayerIvr => "single-layer IVR",
            PdsKind::VsCircuitOnly { .. } => "VS circuit-only",
            PdsKind::VsCrossLayer { .. } => "VS cross-layer",
        }
    }

    /// Appends this kind's stable identity key: a variant tag followed by
    /// the payload's bit pattern, so two kinds push the same words iff they
    /// are bit-identical. Cache keys must use this, never `Debug` output
    /// (formatting is free to elide or reorder fields as the type evolves).
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        match *self {
            PdsKind::ConventionalVrm => out.push(1),
            PdsKind::SingleLayerIvr => out.push(2),
            PdsKind::VsCircuitOnly { area_mult } => out.extend([3, area_mult.to_bits()]),
            PdsKind::VsCrossLayer { area_mult } => out.extend([4, area_mult.to_bits()]),
        }
    }
}

/// Decimation stride of the voltage traces: with
/// [`CosimConfig::record_traces`] on, each SM's trace keeps every
/// `TRACE_STRIDE`th cycle's point.
pub const TRACE_STRIDE: u64 = 8;

/// Full co-simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimConfig {
    /// PDS configuration under test.
    pub pds: PdsKind,
    /// Stack geometry (series layers × columns). Single-layer PDS kinds
    /// keep the same SM count and column layout on one layer.
    pub geometry: StackGeometry,
    /// Voltage-smoothing trigger threshold, volts (Fig. 12 sweeps this).
    pub v_threshold: f64,
    /// Actuator weight vector (Fig. 13 sweeps this).
    pub weights: ActuatorWeights,
    /// Total control-loop latency in cycles (Fig. 10 sweeps this).
    pub latency_cycles: u32,
    /// Voltage detector option (Table II).
    pub detector: DetectorKind,
    /// Workload-generation seed.
    pub seed: u64,
    /// Hard cycle cap for a run.
    pub max_cycles: u64,
    /// Scale factor on kernel iterations (<1 shortens runs for tests).
    pub workload_scale: f64,
    /// Couple SM power to the instantaneous layer voltage (`P ∝ V²`)
    /// instead of treating SMs as constant-power loads.
    pub voltage_scaled_power: bool,
    /// Record per-SM voltage traces, one point every [`TRACE_STRIDE`]
    /// cycles (costs memory; figures need it).
    pub record_traces: bool,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            pds: PdsKind::VsCrossLayer { area_mult: 0.2 },
            geometry: StackGeometry::PAPER,
            v_threshold: 0.9,
            weights: ActuatorWeights::DIWS_ONLY,
            latency_cycles: 60,
            detector: DetectorKind::Oddd,
            seed: 42,
            max_cycles: 3_000_000,
            workload_scale: 1.0,
            voltage_scaled_power: false,
            record_traces: false,
        }
    }
}

impl CosimConfig {
    /// Appends this config's stable identity key: every field's bit pattern
    /// in declaration order, then [`TRACE_STRIDE`]. Two configs push the
    /// same words iff they are bit-identical, so the result is safe to use
    /// as a cache key (unlike `Debug` output, whose formatting is not an
    /// identity contract). The exhaustive destructuring makes adding a
    /// field without extending the key a compile error.
    pub fn stable_key_into(&self, out: &mut Vec<u64>) {
        let CosimConfig {
            pds,
            geometry,
            v_threshold,
            weights,
            latency_cycles,
            detector,
            seed,
            max_cycles,
            workload_scale,
            voltage_scaled_power,
            record_traces,
        } = *self;
        pds.stable_key_into(out);
        geometry.stable_key_into(out);
        out.push(v_threshold.to_bits());
        weights.stable_key_into(out);
        out.push(u64::from(latency_cycles));
        detector.stable_key_into(out);
        out.extend([
            seed,
            max_cycles,
            workload_scale.to_bits(),
            u64::from(voltage_scaled_power),
            u64::from(record_traces),
            TRACE_STRIDE,
        ]);
    }
}

/// The voltage-smoothing controller's configuration for a run with these
/// loop settings, on [`ControllerConfig::default`] for everything else. The
/// co-simulation and the worst-case scenario both build their controllers
/// from it.
pub(crate) fn controller_config(
    v_threshold: f64,
    weights: ActuatorWeights,
    latency_cycles: u32,
    detector: DetectorKind,
) -> ControllerConfig {
    ControllerConfig {
        v_threshold,
        weights,
        latency_cycles,
        detector,
        ..ControllerConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!PdsKind::ConventionalVrm.is_stacked());
        assert!(PdsKind::VsCircuitOnly { area_mult: 1.72 }.is_stacked());
        assert!(!PdsKind::VsCircuitOnly { area_mult: 1.72 }.has_controller());
        assert!(PdsKind::VsCrossLayer { area_mult: 0.2 }.has_controller());
    }

    #[test]
    fn stable_keys_distinguish_single_field_changes() {
        let base = CosimConfig::default();
        let key = |c: &CosimConfig| {
            let mut k = Vec::new();
            c.stable_key_into(&mut k);
            k
        };
        let base_key = key(&base);
        // Every single-field mutation must change the key.
        let variants = [
            CosimConfig { pds: PdsKind::ConventionalVrm, ..base.clone() },
            CosimConfig { pds: PdsKind::VsCrossLayer { area_mult: 0.21 }, ..base.clone() },
            CosimConfig { geometry: StackGeometry::new(2, 8), ..base.clone() },
            CosimConfig { geometry: StackGeometry::new(8, 2), ..base.clone() },
            CosimConfig { v_threshold: 0.91, ..base.clone() },
            CosimConfig { latency_cycles: 61, ..base.clone() },
            CosimConfig { seed: 43, ..base.clone() },
            CosimConfig { max_cycles: base.max_cycles + 1, ..base.clone() },
            CosimConfig { workload_scale: 0.5, ..base.clone() },
            CosimConfig { voltage_scaled_power: true, ..base.clone() },
            CosimConfig { record_traces: true, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(key(v), base_key, "key collision for {v:?}");
        }
        // And an identical config reproduces the key exactly.
        assert_eq!(key(&base.clone()), base_key);
    }

    #[test]
    fn geometry_round_trips_through_strings() {
        for g in [
            StackGeometry::new(2, 8),
            StackGeometry::PAPER,
            StackGeometry::new(8, 2),
            StackGeometry::new(3, 5),
        ] {
            assert_eq!(g.to_string().parse::<StackGeometry>(), Ok(g));
        }
        for bad in ["", "4", "4x", "x4", "4x0", "1x16", "4x4x4", "fourxfour"] {
            let err = bad.parse::<StackGeometry>().unwrap_err();
            assert_eq!(err.text, bad);
            assert!(err.to_string().contains("LxC"), "{err}");
        }
    }

    #[test]
    fn geometry_keys_distinguish_transposed_arrangements() {
        // 2x8 and 8x2 have the same SM count; the key must still differ.
        let key = |g: StackGeometry| {
            let mut k = Vec::new();
            g.stable_key_into(&mut k);
            k
        };
        assert_ne!(key(StackGeometry::new(2, 8)), key(StackGeometry::new(8, 2)));
        assert_eq!(StackGeometry::new(2, 8).n_sms(), StackGeometry::new(8, 2).n_sms());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            PdsKind::ConventionalVrm.label(),
            PdsKind::SingleLayerIvr.label(),
            PdsKind::VsCircuitOnly { area_mult: 1.0 }.label(),
            PdsKind::VsCrossLayer { area_mult: 0.2 }.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 4);
    }
}

//! First-class sweepable configuration space: typed axes, a shared
//! string grammar, and deterministic cross-product enumeration.
//!
//! A [`ConfigPoint`] is one designable configuration of the voltage-stacked
//! system — stack geometry, CR-IVR area budget, PDS family, guardband
//! threshold, control-loop latency, actuator weight vector, detector, and a
//! workload-intensity knob. Every point prints as and parses from the same
//! compact grammar (`stack=4x4,area=0.2,latency=60`), which the `dse` CLI,
//! the tests, and the frontier artifacts all share — and whose `k=v` words
//! double as metric labels, so a point's metrics carry its identity.
//!
//! An [`AxisSpace`] is a list of candidate values per axis; its cross
//! product (in fixed odometer order) is the design space the `dse` driver
//! enumerates. Identity and dedup always go through
//! [`crate::shard::SuiteKey`] on the *applied* [`CosimConfig`] — never
//! through `Debug` strings or float equality.

use std::fmt;
use std::str::FromStr;

use vs_control::{ActuatorWeights, DetectorKind};
use vs_core::{CosimConfig, PdsKind, StackGeometry};

use crate::shard::SuiteKey;
use crate::RunSettings;

/// The stacked PDS families the design space ranges over (the single-layer
/// baselines have no CR-IVR area coordinate, so they live outside the
/// frontier's objective space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdsFamily {
    /// Cross-layer: CR-IVR plus the architecture-level smoothing loop.
    Cross,
    /// Circuit-only: the CR-IVR absorbs the worst case alone.
    Circuit,
}

impl PdsFamily {
    /// Grammar word (`pds=cross` / `pds=circuit`).
    pub fn word(self) -> &'static str {
        match self {
            PdsFamily::Cross => "cross",
            PdsFamily::Circuit => "circuit",
        }
    }

    /// The [`PdsKind`] for this family at a CR-IVR area budget.
    pub fn kind(self, area_mult: f64) -> PdsKind {
        match self {
            PdsFamily::Cross => PdsKind::VsCrossLayer { area_mult },
            PdsFamily::Circuit => PdsKind::VsCircuitOnly { area_mult },
        }
    }
}

impl fmt::Display for PdsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.word())
    }
}

/// Displays a detector in the grammar vocabulary (`oddd`, `cpm`, `adc8`).
fn detector_word(d: DetectorKind) -> String {
    match d {
        DetectorKind::Oddd => "oddd".to_string(),
        DetectorKind::Cpm => "cpm".to_string(),
        DetectorKind::Adc { bits } => format!("adc{bits}"),
    }
}

fn parse_detector(s: &str) -> Option<DetectorKind> {
    match s {
        "oddd" => Some(DetectorKind::Oddd),
        "cpm" => Some(DetectorKind::Cpm),
        _ => {
            let bits: u32 = s.strip_prefix("adc")?.parse().ok()?;
            (1..=24).contains(&bits).then_some(DetectorKind::Adc { bits })
        }
    }
}

/// Displays a weight vector in the grammar vocabulary (`0.6:0:0.4` —
/// colon-separated so the word stays comma-free and usable as a metric
/// label value).
fn weights_word(w: ActuatorWeights) -> String {
    format!("{}:{}:{}", w.diws, w.fii, w.dcc)
}

fn parse_weights(s: &str) -> Option<ActuatorWeights> {
    let mut it = s.split(':');
    let diws: f64 = it.next()?.parse().ok()?;
    let fii: f64 = it.next()?.parse().ok()?;
    let dcc: f64 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    let finite = diws.is_finite() && fii.is_finite() && dcc.is_finite();
    // The *sum* must be finite too: three representable components can
    // still overflow to inf (`1e308:1e308:0`), which `normalized()` would
    // quietly turn into an all-zero weight vector.
    let sum = diws + fii + dcc;
    let valid = finite && diws >= 0.0 && fii >= 0.0 && dcc >= 0.0 && sum > 0.0 && sum.is_finite();
    valid.then(|| ActuatorWeights::new(diws, fii, dcc))
}

/// One configuration of the design space. Unspecified grammar keys default
/// to the paper's operating point ([`ConfigPoint::paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigPoint {
    /// Stack geometry (`stack=4x4`).
    pub stack: StackGeometry,
    /// CR-IVR area as a multiple of the GPU die (`area=0.2`).
    pub area: f64,
    /// PDS family (`pds=cross` / `pds=circuit`).
    pub pds: PdsFamily,
    /// Voltage-smoothing trigger threshold, volts (`vth=0.9`).
    pub vth: f64,
    /// Control-loop latency, cycles (`latency=60`).
    pub latency: u32,
    /// Actuator weight vector (`weights=0.6:0:0.4`).
    pub weights: ActuatorWeights,
    /// Voltage detector (`detector=oddd` / `cpm` / `adc<bits>`).
    pub detector: DetectorKind,
    /// Workload-intensity knob: a multiplier on the nominal per-SM load
    /// (`workload=1`).
    pub workload: f64,
}

impl ConfigPoint {
    /// The paper's headline operating point: 4×4 stack, 0.2× CR-IVR,
    /// cross-layer control at T=60 with ODDD sensing and the Fig. 9/10
    /// DIWS+DCC weight mix.
    pub fn paper() -> Self {
        ConfigPoint {
            stack: StackGeometry::PAPER,
            area: 0.2,
            pds: PdsFamily::Cross,
            vth: 0.9,
            latency: 60,
            weights: ActuatorWeights::new(0.6, 0.0, 0.4),
            detector: DetectorKind::Oddd,
            workload: 1.0,
        }
    }

    /// Applies this point to a base config, producing the deterministic
    /// [`CosimConfig`] whose [`SuiteKey`] identifies (and memoizes) the
    /// point. The base contributes the run-scale fields (seed, cycle cap,
    /// trace switches); the point overrides every designable axis. The
    /// workload knob multiplies the base's `workload_scale`, so the same
    /// point under different profiles keys differently (as it must — the
    /// metrics differ).
    pub fn apply(&self, base: &CosimConfig) -> CosimConfig {
        CosimConfig {
            pds: self.pds.kind(self.area),
            geometry: self.stack,
            v_threshold: self.vth,
            weights: self.weights,
            latency_cycles: self.latency,
            detector: self.detector,
            workload_scale: base.workload_scale * self.workload,
            ..base.clone()
        }
    }

    /// The point's stable identity under `settings`: the [`SuiteKey`] of
    /// the applied config. All point dedup routes through this — two points
    /// are the same configuration iff their keys are equal.
    pub fn suite_key(&self, settings: &RunSettings) -> SuiteKey {
        let base = settings.config(self.pds.kind(self.area));
        SuiteKey::new(&self.apply(&base), &Default::default())
    }

    /// The point's axes as metric labels, in grammar order. Label values
    /// are comma-free by construction, so labeled metric keys survive
    /// [`vs_telemetry::canonical_key`] untouched.
    pub fn labels(&self) -> Vec<(&'static str, String)> {
        vec![
            ("stack", self.stack.to_string()),
            ("area", self.area.to_string()),
            ("pds", self.pds.to_string()),
            ("vth", self.vth.to_string()),
            ("latency", self.latency.to_string()),
            ("weights", weights_word(self.weights)),
            ("detector", detector_word(self.detector)),
            ("workload", self.workload.to_string()),
        ]
    }
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.labels().into_iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// Error for a malformed [`ConfigPoint`] / [`AxisSpace`] spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePointError {
    /// The offending `k=v` word (or the whole input when structural).
    pub word: String,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParsePointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad sweep spec at {:?}: {}", self.word, self.reason)
    }
}

impl std::error::Error for ParsePointError {}

fn err(word: &str, reason: impl Into<String>) -> ParsePointError {
    ParsePointError { word: word.to_string(), reason: reason.into() }
}

/// The grammar's axis keys, in canonical (display) order.
pub const AXIS_KEYS: [&str; 8] =
    ["stack", "area", "pds", "vth", "latency", "weights", "detector", "workload"];

fn parse_pds(s: &str) -> Option<PdsFamily> {
    match s {
        "cross" => Some(PdsFamily::Cross),
        "circuit" => Some(PdsFamily::Circuit),
        _ => None,
    }
}

fn parse_pos_f64(s: &str) -> Option<f64> {
    let x: f64 = s.parse().ok()?;
    (x.is_finite() && x > 0.0).then_some(x)
}

impl FromStr for ConfigPoint {
    type Err = ParsePointError;

    /// Parses `k=v` words separated by commas; any subset of
    /// [`AXIS_KEYS`] in any order, each at most once; missing axes take
    /// the paper defaults. `point.to_string().parse()` round-trips exactly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let space: AxisSpace = s.parse()?;
        let mut points = space.points();
        if points.len() != 1 {
            return Err(err(s, format!("expected one value per axis, got {} points", points.len())));
        }
        Ok(points.remove(0))
    }
}

/// Candidate values per axis; the cross product (odometer order, axes
/// nested in [`AXIS_KEYS`] order with the last axis fastest) is the design
/// space. Axes left unspecified in the string form are singletons at the
/// paper defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpace {
    /// Stack geometries.
    pub stacks: Vec<StackGeometry>,
    /// CR-IVR area budgets.
    pub areas: Vec<f64>,
    /// PDS families.
    pub pds: Vec<PdsFamily>,
    /// Trigger thresholds, volts.
    pub vths: Vec<f64>,
    /// Control-loop latencies, cycles.
    pub latencies: Vec<u32>,
    /// Actuator weight vectors.
    pub weights: Vec<ActuatorWeights>,
    /// Detectors.
    pub detectors: Vec<DetectorKind>,
    /// Workload-intensity multipliers.
    pub workloads: Vec<f64>,
}

impl Default for AxisSpace {
    /// Every axis a singleton at the paper point.
    fn default() -> Self {
        let p = ConfigPoint::paper();
        AxisSpace {
            stacks: vec![p.stack],
            areas: vec![p.area],
            pds: vec![p.pds],
            vths: vec![p.vth],
            latencies: vec![p.latency],
            weights: vec![p.weights],
            detectors: vec![p.detector],
            workloads: vec![p.workload],
        }
    }
}

impl AxisSpace {
    /// The full built-in exploration grid: 3 geometries × 6 area budgets ×
    /// 2 families × 2 guardbands × 4 latencies × 3 weight mixes ×
    /// 2 detectors = 1728 points — the "thousands of configurations"
    /// stress load of ROADMAP's design-space item.
    pub fn full_grid() -> Self {
        AxisSpace {
            stacks: vec![
                StackGeometry::new(2, 8),
                StackGeometry::PAPER,
                StackGeometry::new(8, 2),
            ],
            areas: vec![0.1, 0.2, 0.4, 0.8, 1.2, 1.72],
            pds: vec![PdsFamily::Cross, PdsFamily::Circuit],
            vths: vec![0.88, 0.9],
            latencies: vec![30, 60, 90, 120],
            weights: vec![
                ActuatorWeights::DIWS_ONLY,
                ActuatorWeights::new(0.6, 0.0, 0.4),
                ActuatorWeights::new(0.4, 0.2, 0.4),
            ],
            detectors: vec![DetectorKind::Oddd, DetectorKind::Cpm],
            workloads: vec![1.0],
        }
    }

    /// A 12-point smoke grid around the paper's headline comparison
    /// (Fig. 9/10): area 0.1×/0.2×/1.72×, both families, T = 60/120.
    pub fn tiny_grid() -> Self {
        AxisSpace {
            areas: vec![0.1, 0.2, 1.72],
            pds: vec![PdsFamily::Cross, PdsFamily::Circuit],
            latencies: vec![60, 120],
            ..AxisSpace::default()
        }
    }

    /// Number of points in the cross product.
    pub fn len(&self) -> usize {
        self.stacks.len()
            * self.areas.len()
            * self.pds.len()
            * self.vths.len()
            * self.latencies.len()
            * self.weights.len()
            * self.detectors.len()
            * self.workloads.len()
    }

    /// Whether any axis is empty (an empty axis empties the product).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross product in deterministic odometer order.
    pub fn points(&self) -> Vec<ConfigPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &stack in &self.stacks {
            for &area in &self.areas {
                for &pds in &self.pds {
                    for &vth in &self.vths {
                        for &latency in &self.latencies {
                            for &weights in &self.weights {
                                for &detector in &self.detectors {
                                    for &workload in &self.workloads {
                                        out.push(ConfigPoint {
                                            stack,
                                            area,
                                            pds,
                                            vth,
                                            latency,
                                            weights,
                                            detector,
                                            workload,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl FromStr for AxisSpace {
    type Err = ParsePointError;

    /// Parses the sweep grammar with `|`-separated alternatives per axis:
    /// `stack=4x4|8x2,area=0.1|0.2|1.72,latency=60`. Each axis key appears
    /// at most once; unspecified axes are singletons at the paper defaults.
    /// A spec with one value per axis is exactly a [`ConfigPoint`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut space = AxisSpace::default();
        let mut seen = [false; AXIS_KEYS.len()];
        if s.trim().is_empty() {
            return Ok(space);
        }
        for word in s.split(',') {
            let word = word.trim();
            let (key, values) =
                word.split_once('=').ok_or_else(|| err(word, "expected key=value"))?;
            let idx = AXIS_KEYS
                .iter()
                .position(|k| *k == key)
                .ok_or_else(|| {
                    err(word, format!("unknown axis {key:?}; axes: {}", AXIS_KEYS.join(", ")))
                })?;
            if seen[idx] {
                return Err(err(word, format!("axis {key:?} given twice")));
            }
            seen[idx] = true;
            let alts: Vec<&str> = values.split('|').collect();
            if alts.iter().any(|a| a.is_empty()) {
                return Err(err(word, "empty alternative"));
            }
            macro_rules! axis {
                ($field:ident, $parse:expr, $expects:expr) => {{
                    space.$field = alts
                        .iter()
                        .map(|a| $parse(a).ok_or_else(|| err(word, $expects)))
                        .collect::<Result<Vec<_>, _>>()?;
                }};
            }
            match key {
                "stack" => {
                    // Cosim and the worst-case controller drive the GPU's
                    // SMs, so a stack must arrange exactly that many.
                    let n_sms = vs_gpu::GpuConfig::default().n_sms;
                    let expects = format!("expected LxC arranging the GPU's {n_sms} SMs (e.g. 4x4)");
                    axis!(
                        stacks,
                        |a: &&str| a
                            .parse::<StackGeometry>()
                            .ok()
                            .filter(|g| g.n_sms() as usize == n_sms),
                        &expects
                    )
                }
                "area" => axis!(areas, |a: &&str| parse_pos_f64(a), "expected a positive area multiple"),
                "pds" => axis!(pds, |a: &&str| parse_pds(a), "expected cross or circuit"),
                "vth" => axis!(vths, |a: &&str| parse_pos_f64(a), "expected a positive threshold in volts"),
                "latency" => {
                    axis!(latencies, |a: &&str| a.parse::<u32>().ok().filter(|&l| l > 0), "expected a positive cycle count")
                }
                "weights" => {
                    axis!(weights, |a: &&str| parse_weights(a), "expected diws:fii:dcc (e.g. 0.6:0:0.4)")
                }
                "detector" => {
                    axis!(detectors, |a: &&str| parse_detector(a), "expected oddd, cpm, or adc<bits>")
                }
                "workload" => {
                    axis!(workloads, |a: &&str| parse_pos_f64(a), "expected a positive load multiplier")
                }
                _ => unreachable!("key membership checked above"),
            }
        }
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_round_trips() {
        let p = ConfigPoint::paper();
        let s = p.to_string();
        assert_eq!(
            s,
            "stack=4x4,area=0.2,pds=cross,vth=0.9,latency=60,\
             weights=0.6:0:0.4,detector=oddd,workload=1"
        );
        assert_eq!(s.parse::<ConfigPoint>().unwrap(), p);
    }

    #[test]
    fn partial_specs_default_to_paper() {
        let p: ConfigPoint = "area=1.72,pds=circuit".parse().unwrap();
        assert_eq!(p.area, 1.72);
        assert_eq!(p.pds, PdsFamily::Circuit);
        assert_eq!(p.stack, StackGeometry::PAPER);
        assert_eq!(p.latency, 60);
        let empty: ConfigPoint = "".parse().unwrap();
        assert_eq!(empty, ConfigPoint::paper());
    }

    #[test]
    fn every_grid_point_round_trips() {
        for p in AxisSpace::full_grid().points() {
            assert_eq!(p.to_string().parse::<ConfigPoint>().unwrap(), p, "{p}");
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_word() {
        for (spec, needle) in [
            ("stack", "key=value"),
            ("flux=9", "unknown axis"),
            ("area=0.2,area=0.4", "twice"),
            ("stack=1x16", "LxC"),
            ("stack=2x4", "16 SMs"),
            ("area=-0.2", "positive"),
            ("pds=vrm", "cross or circuit"),
            ("latency=0", "positive cycle count"),
            ("weights=0:0:0", "diws:fii:dcc"),
            ("detector=adc99", "adc<bits>"),
            ("area=0.1|", "empty alternative"),
        ] {
            let e = spec.parse::<AxisSpace>().unwrap_err();
            assert!(e.to_string().contains(needle), "{spec}: {e}");
        }
        // A multi-valued spec is a space, not a point.
        let e = "area=0.1|0.2".parse::<ConfigPoint>().unwrap_err();
        assert!(e.to_string().contains("2 points"), "{e}");
    }

    /// Parsing totality over hostile numeric strings: every float axis must
    /// reject non-finite, zero, and negative inputs (including values like
    /// `1e999` that *parse* as f64 but overflow to inf), because a point
    /// that breaks the Display/FromStr round-trip would poison the
    /// content-addressed cache — its canonical string could name a
    /// different (or unparseable) configuration than the one that ran.
    #[test]
    fn hostile_numeric_strings_are_rejected_on_every_axis() {
        let hostile_scalars =
            ["inf", "+inf", "-inf", "infinity", "nan", "NaN", "1e999", "-1e999", "0", "-0",
             "0.0", "-0.0", "1e-999", "-1", ""];
        for axis in ["area", "vth", "workload"] {
            for v in hostile_scalars {
                let spec = format!("{axis}={v}");
                assert!(
                    spec.parse::<AxisSpace>().is_err(),
                    "{spec:?} must be rejected"
                );
            }
        }
        for w in ["inf:0:0", "nan:1:1", "1e999:0:0", "1e308:1e308:0", "-1:2:0", "0:0:0",
                  "1:2", "1:2:3:4", "::", "0.6:0:-0.4"] {
            let spec = format!("weights={w}");
            assert!(spec.parse::<AxisSpace>().is_err(), "{spec:?} must be rejected");
        }
        for l in ["0", "-1", "4294967296", "inf", "1e3", "60.5", ""] {
            let spec = format!("latency={l}");
            assert!(spec.parse::<AxisSpace>().is_err(), "{spec:?} must be rejected");
        }
        for d in ["adc0", "adc25", "adc-1", "adcinf", "adc", "odd"] {
            let spec = format!("detector={d}");
            assert!(spec.parse::<AxisSpace>().is_err(), "{spec:?} must be rejected");
        }
        for g in ["0x4", "1x4", "2x0", "infx4", "4x", "x4", "4x4x4"] {
            let spec = format!("stack={g}");
            assert!(spec.parse::<AxisSpace>().is_err(), "{spec:?} must be rejected");
        }
    }

    /// The flip side of totality: every *accepted* spelling — canonical or
    /// not (`+0.5`, `.5`, `1e3`, shortest-round-trip doubles, huge-but-
    /// finite magnitudes) — must land on a point whose canonical string
    /// re-parses to the bit-identical point, so the suite key (and with it
    /// the cache identity) is stable across the round trip.
    #[test]
    fn accepted_hostile_spellings_round_trip_bit_exactly() {
        let settings = RunSettings::tiny_profile();
        for spec in [
            "area=+0.5",
            "area=.5",
            "area=1e3",
            "area=1e308",
            "area=5e-324", // smallest subnormal: positive, finite, legal
            "vth=0.30000000000000004",
            "workload=2.2250738585072014e-308",
            "weights=+0.6:0:0.4",
            "weights=1e307:1e307:0",
            "latency=+60",
        ] {
            let p: ConfigPoint = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            let canon = p.to_string();
            let q: ConfigPoint = canon.parse().unwrap_or_else(|e| panic!("{canon}: {e}"));
            assert_eq!(p, q, "{spec} → {canon} must round-trip");
            assert_eq!(
                p.suite_key(&settings),
                q.suite_key(&settings),
                "{spec}: cache identity must survive the round trip"
            );
        }
    }

    #[test]
    fn space_grammar_parses_alternatives() {
        let space: AxisSpace = "stack=4x4|8x2,area=0.1|0.2|1.72,latency=60|120".parse().unwrap();
        assert_eq!(space.len(), 2 * 3 * 2);
        let pts = space.points();
        assert_eq!(pts.len(), 12);
        // Odometer order: last axis fastest within the keyed nesting.
        assert_eq!(pts[0].latency, 60);
        assert_eq!(pts[1].latency, 120);
        assert_eq!(pts[0].stack, StackGeometry::PAPER);
        assert_eq!(pts[6].stack, StackGeometry::new(8, 2));
    }

    #[test]
    fn grid_sizes() {
        assert_eq!(AxisSpace::full_grid().len(), 1728);
        assert!(AxisSpace::full_grid().len() >= 1000);
        assert_eq!(AxisSpace::tiny_grid().len(), 12);
        assert_eq!(AxisSpace::default().len(), 1);
    }

    #[test]
    fn apply_sets_every_designable_axis() {
        let settings = RunSettings::tiny_profile();
        let p: ConfigPoint =
            "stack=8x2,area=0.4,pds=circuit,vth=0.88,latency=90,weights=1:0:0,\
             detector=cpm,workload=0.5"
                .parse()
                .unwrap();
        let cfg = p.apply(&settings.config(p.pds.kind(p.area)));
        assert_eq!(cfg.pds, PdsKind::VsCircuitOnly { area_mult: 0.4 });
        assert_eq!(cfg.geometry, StackGeometry::new(8, 2));
        assert_eq!(cfg.v_threshold, 0.88);
        assert_eq!(cfg.latency_cycles, 90);
        assert_eq!(cfg.detector, DetectorKind::Cpm);
        assert!((cfg.workload_scale - settings.workload_scale * 0.5).abs() < 1e-15);
        // Run-scale fields come from the settings base.
        assert_eq!(cfg.seed, settings.seed);
        assert_eq!(cfg.max_cycles, settings.max_cycles);
    }

    /// The satellite collision/property test: across every axis of the full
    /// grid (geometry and workload words included), distinct points never
    /// produce equal [`SuiteKey`]s — the PR-5 collision guarantee extended
    /// to the new vocabulary.
    #[test]
    fn distinct_points_never_collide_in_suite_key() {
        let settings = RunSettings::tiny_profile();
        let mut seen = std::collections::HashMap::new();
        for p in AxisSpace::full_grid().points() {
            let key = p.suite_key(&settings);
            if let Some(prev) = seen.insert(key, p) {
                panic!("key collision: {prev} vs {p}");
            }
        }
        assert_eq!(seen.len(), 1728);
        // And the workload knob keys differently from an otherwise-equal
        // point (it reaches the config through workload_scale).
        let a: ConfigPoint = "workload=1".parse().unwrap();
        let b: ConfigPoint = "workload=0.5".parse().unwrap();
        assert_ne!(a.suite_key(&settings), b.suite_key(&settings));
        // Same point, same key (memoization is exact).
        assert_eq!(a.suite_key(&settings), ConfigPoint::paper().suite_key(&settings));
    }
}

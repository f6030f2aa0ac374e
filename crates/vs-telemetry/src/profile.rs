//! Span-style stage profiling of the co-simulation loop.
//!
//! The lock-step loop has five fixed stages per cycle (GPU timing step,
//! power model, circuit solve, controller update, hypervisor remap); the
//! profiler accumulates wall time and hit counts per stage with two calls —
//! [`StageProfiler::start`] / [`StageProfiler::stop`] — that collapse to a
//! branch on `None` when profiling is disabled, so the instrumented loop
//! costs nothing measurable without telemetry.

use std::time::Instant;

use crate::events::StageSample;

/// One stage of the co-simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// GPU timing-simulator tick.
    GpuStep,
    /// Microarchitectural events to per-SM watts.
    PowerModel,
    /// Transient circuit solve of the PDS.
    CircuitSolve,
    /// Detector sampling + Algorithm-1 controller update + actuation.
    ControllerUpdate,
    /// Epoch-boundary DFS / power-gating / hypervisor command remap.
    HypervisorRemap,
}

impl Stage {
    /// Every stage, in loop order.
    pub const ALL: [Stage; 5] = [
        Stage::GpuStep,
        Stage::PowerModel,
        Stage::CircuitSolve,
        Stage::ControllerUpdate,
        Stage::HypervisorRemap,
    ];

    /// Stable schema name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::GpuStep => "gpu_step",
            Stage::PowerModel => "power_model",
            Stage::CircuitSolve => "circuit_solve",
            Stage::ControllerUpdate => "controller_update",
            Stage::HypervisorRemap => "hypervisor_remap",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::GpuStep => 0,
            Stage::PowerModel => 1,
            Stage::CircuitSolve => 2,
            Stage::ControllerUpdate => 3,
            Stage::HypervisorRemap => 4,
        }
    }
}

/// Accumulated wall time and hit counts per [`Stage`].
#[derive(Debug, Clone, Default)]
pub struct StageProfiler {
    enabled: bool,
    nanos: [u64; Stage::ALL.len()],
    counts: [u64; Stage::ALL.len()],
}

impl StageProfiler {
    /// A profiler that records.
    pub fn new() -> Self {
        StageProfiler {
            enabled: true,
            ..StageProfiler::default()
        }
    }

    /// A profiler whose spans are no-ops.
    pub fn disabled() -> Self {
        StageProfiler::default()
    }

    /// Whether spans record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span: reads the clock only when enabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened by [`StageProfiler::start`], attributing the
    /// elapsed time to `stage`. `None` (from a disabled profiler) is a
    /// no-op, so call sites need no guard of their own.
    #[inline]
    pub fn stop(&mut self, stage: Stage, started: Option<Instant>) {
        if let Some(t0) = started {
            let i = stage.index();
            self.nanos[i] += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.counts[i] += 1;
        }
    }

    /// Accumulated wall time of a stage, seconds.
    pub fn total_s(&self, stage: Stage) -> f64 {
        self.nanos[stage.index()] as f64 * 1e-9
    }

    /// Number of closed spans of a stage.
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage.index()]
    }

    /// Exports the per-stage totals in loop order (stages with zero hits
    /// are included so the schema is fixed-width).
    pub fn snapshot(&self) -> Vec<StageSample> {
        Stage::ALL
            .iter()
            .map(|&s| StageSample {
                stage: s.name().to_string(),
                total_s: self.total_s(s),
                count: self.count(s),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate() {
        let mut p = StageProfiler::new();
        for _ in 0..3 {
            let t = p.start();
            assert!(t.is_some());
            std::hint::black_box(17 * 3);
            p.stop(Stage::CircuitSolve, t);
        }
        let t = p.start();
        p.stop(Stage::GpuStep, t);
        assert_eq!(p.count(Stage::CircuitSolve), 3);
        assert_eq!(p.count(Stage::GpuStep), 1);
        assert_eq!(p.count(Stage::PowerModel), 0);
        assert_eq!(p.total_s(Stage::PowerModel), 0.0);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = StageProfiler::disabled();
        let t = p.start();
        assert!(t.is_none());
        p.stop(Stage::GpuStep, t);
        assert_eq!(p.count(Stage::GpuStep), 0);
        assert_eq!(p.total_s(Stage::GpuStep), 0.0);
    }

    #[test]
    fn snapshot_is_fixed_width_in_loop_order() {
        let p = StageProfiler::new();
        let s = p.snapshot();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].stage, "gpu_step");
        assert_eq!(s[2].stage, "circuit_solve");
    }

    #[test]
    fn stage_names_are_distinct() {
        let names: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}

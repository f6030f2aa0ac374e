//! Process-wide executor observability: the global [`Tracer`], the executor
//! metrics registry, per-thread worker tracks, and the progress sink.
//!
//! The sweep's orchestration layer (`shard` / `sweep` / `campaign` /
//! `journal`) records its task lifecycle here, and `dse` one span per
//! executed simulation run. Three consumers share the same vocabulary:
//!
//! * **Traces** — spans/instants on per-worker tracks, exported as
//!   Chrome/Perfetto `trace.json` by `sweep --trace` and `dse --trace`.
//! * **Metrics** — queue-depth gauge, steal/retry/replay counters, and
//!   per-scenario solve-time histograms, embedded in the trace export and
//!   summarized by `sweep report`.
//! * **Progress** — the `--progress=plain|json|off` stderr stream; the JSON
//!   form prints [`vs_telemetry::lifecycle_json`] lines with the same
//!   cat/name/args identity the trace events carry.
//!
//! Everything is observational. Artifact bytes depend only on
//! [`crate::RunSettings`]; enabling tracing changes no artifact (the shard
//! tests run with tracing on at several worker counts and byte-compare).
//! When tracing is disabled every instrumentation point reduces to one
//! relaxed atomic load — the perf harness guards that this stays under the
//! noise floor of a co-simulation cycle.

use std::cell::Cell;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use vs_telemetry::{lifecycle_json, MetricsSnapshot, Registry, TraceEvent, Tracer};

/// Bucket bounds (seconds) for the per-scenario task wall-time histograms.
/// Tasks range from milliseconds (micro test profiles) to minutes (default
/// scale on a loaded host).
pub const TASK_WALL_BOUNDS: &[f64] = &[0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0];

/// The process-wide tracer. Starts disabled; `sweep --trace` (and the
/// trace tests) flip it on via [`set_tracing`].
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Turns executor tracing (spans + metrics) on or off.
pub fn set_tracing(enabled: bool) {
    tracer().set_enabled(enabled);
}

/// Whether executor tracing records. One relaxed atomic load — callers on
/// warm paths gate string-building behind this.
#[inline]
pub fn tracing_enabled() -> bool {
    tracer().is_enabled()
}

/// The calling thread's trace track (Chrome `tid`), allocated on first use.
/// Sweep workers, stealing threads, and the coordinator each get their own
/// timeline row in the Perfetto UI.
pub fn worker_track() -> u64 {
    thread_local! {
        static TRACK: Cell<Option<u64>> = const { Cell::new(None) };
    }
    TRACK.with(|slot| match slot.get() {
        Some(track) => track,
        None => {
            let track = tracer().allocate_track();
            slot.set(Some(track));
            track
        }
    })
}

fn executor_metrics() -> &'static Mutex<Registry> {
    static METRICS: OnceLock<Mutex<Registry>> = OnceLock::new();
    METRICS.get_or_init(|| Mutex::new(Registry::new()))
}

/// Bumps an executor counter (e.g. `executor.steals`). No-op unless tracing
/// is enabled — the always-on cheap counters live in `shard::ShardStats`;
/// this registry exists for the trace/report consumers.
pub fn metric_inc(name: &str, by: u64) {
    if tracing_enabled() {
        executor_metrics().lock().expect("metrics poisoned").inc(name, by);
    }
}

/// Sets an executor gauge (e.g. `executor.queue_depth`). No-op unless
/// tracing is enabled.
pub fn metric_gauge(name: &str, value: f64) {
    if tracing_enabled() {
        executor_metrics()
            .lock()
            .expect("metrics poisoned")
            .set_gauge(name, value);
    }
}

/// Records one task wall-time sample into the named histogram (bounds:
/// [`TASK_WALL_BOUNDS`]). No-op unless tracing is enabled.
pub fn metric_observe_wall(name: &str, seconds: f64) {
    if tracing_enabled() {
        executor_metrics()
            .lock()
            .expect("metrics poisoned")
            .observe(name, TASK_WALL_BOUNDS, seconds);
    }
}

/// A snapshot of the executor metrics (for the trace export / report).
#[must_use]
pub fn metrics_snapshot() -> MetricsSnapshot {
    executor_metrics().lock().expect("metrics poisoned").snapshot()
}

/// Takes every buffered trace event, leaving the tracer recording. The
/// trace writer calls this once at end of run.
#[must_use]
pub fn drain_trace() -> Vec<TraceEvent> {
    tracer().drain()
}

/// Test hook: clears the metrics registry and trace buffer so consecutive
/// in-process runs observe only their own events.
pub fn reset_observability_for_tests() {
    *executor_metrics().lock().expect("metrics poisoned") = Registry::new();
    let _ = tracer().drain();
}

/// How the binaries narrate progress on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Human-oriented one-liners (the historical format).
    #[default]
    Plain,
    /// One [`vs_telemetry::lifecycle_json`] object per line — the same
    /// cat/name/args vocabulary as the trace events, for scripted
    /// consumers.
    Json,
    /// Silent.
    Off,
}

impl FromStr for ProgressMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => Ok(ProgressMode::Plain),
            "json" => Ok(ProgressMode::Json),
            "off" => Ok(ProgressMode::Off),
            other => Err(format!(
                "invalid progress mode {other:?} (expected plain, json, or off)"
            )),
        }
    }
}

static PROGRESS_MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the process-wide progress mode.
pub fn set_progress(mode: ProgressMode) {
    let v = match mode {
        ProgressMode::Plain => 0,
        ProgressMode::Json => 1,
        ProgressMode::Off => 2,
    };
    PROGRESS_MODE.store(v, Ordering::Relaxed);
}

/// The current progress mode.
#[must_use]
pub fn progress_mode() -> ProgressMode {
    match PROGRESS_MODE.load(Ordering::Relaxed) {
        1 => ProgressMode::Json,
        2 => ProgressMode::Off,
        _ => ProgressMode::Plain,
    }
}

/// Emits one progress line on stderr. `plain` builds the human text (only
/// called in plain mode); JSON mode prints the lifecycle-event form of the
/// same (cat, name, args); off prints nothing. Progress is observational —
/// it never touches artifact bytes, preserving the determinism contract.
pub fn progress(cat: &str, name: &str, args: &[(&str, String)], plain: impl FnOnce() -> String) {
    match progress_mode() {
        ProgressMode::Off => {}
        ProgressMode::Plain => eprintln!("{}", plain()),
        ProgressMode::Json => {
            eprintln!("{}", lifecycle_json(cat, name, args).to_string_compact());
        }
    }
}

/// Routes an experiment-internal step line through the progress sink:
/// plain mode prints `text` exactly as the old free-form stderr line did;
/// JSON mode wraps it in a `(experiment, step)` lifecycle event; off
/// silences it.
pub fn progress_step(text: &str) {
    progress("experiment", "step", &[("detail", text.trim().to_string())], || text.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_mode_parses() {
        assert_eq!("plain".parse::<ProgressMode>().unwrap(), ProgressMode::Plain);
        assert_eq!("json".parse::<ProgressMode>().unwrap(), ProgressMode::Json);
        assert_eq!("off".parse::<ProgressMode>().unwrap(), ProgressMode::Off);
        assert!("verbose".parse::<ProgressMode>().is_err());
    }

    #[test]
    fn metrics_are_gated_on_tracing() {
        reset_observability_for_tests();
        set_tracing(false);
        metric_inc("executor.test_gate", 1);
        assert_eq!(metrics_snapshot().counter("executor.test_gate"), None);
        set_tracing(true);
        metric_inc("executor.test_gate", 2);
        metric_observe_wall("executor.test_wall", 0.5);
        let snap = metrics_snapshot();
        assert_eq!(snap.counter("executor.test_gate"), Some(2));
        assert_eq!(snap.histogram("executor.test_wall").unwrap().total, 1);
        set_tracing(false);
        reset_observability_for_tests();
    }

    #[test]
    fn worker_track_is_stable_per_thread() {
        let a = worker_track();
        let b = worker_track();
        assert_eq!(a, b);
        let other = std::thread::spawn(worker_track).join().unwrap();
        assert_ne!(a, other);
    }
}

//! Executor-level span/event tracing with Chrome/Perfetto export.
//!
//! The sweep's orchestration layer (suite enqueue, scenario claim/steal,
//! attempts, backoff, quarantine, journal replay — see `vs-bench`'s `shard`
//! module) records its lifecycle through its executor's [`Tracer`]: spans
//! ([`TracePhase::Complete`]) and point events ([`TracePhase::Instant`]) on
//! per-thread tracks, exportable as a Chrome/Perfetto `trace.json` via
//! [`chrome_trace_json`] and parseable back with [`parse_chrome_trace`].
//!
//! # Identity vs. wall time
//!
//! Trace events follow the same rule as the run-artifact schema: wall times
//! are *recorded* but never part of a run's **identity**. An event's
//! identity is its name, category, and args (the fields
//! [`lifecycle_json`] prints); its timestamps and track are observational —
//! they depend on scheduling and the host, so no artifact comparison may
//! consult them. This is what lets a sweep run with tracing enabled and
//! still produce bit-identical deterministic artifacts at any worker
//! count.
//!
//! # Overhead
//!
//! A disabled tracer reduces every instrumentation point to one relaxed
//! atomic load ([`Tracer::begin`] returns `None`, the `end_span` /
//! `instant` bodies early-return before building any strings). The
//! `vs-bench` perf harness guards this stays under the noise floor of the
//! co-simulation cycle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::{self, Json};
use crate::metrics::MetricsSnapshot;

/// When a trace event happened: a span with a duration, or a point event.
/// All times are nanoseconds since the tracer's epoch (its construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A completed span (Chrome phase `"X"`).
    Complete {
        /// Start offset from the tracer epoch, nanoseconds.
        start_ns: u64,
        /// Span duration, nanoseconds.
        dur_ns: u64,
    },
    /// A point event (Chrome phase `"i"`).
    Instant {
        /// Offset from the tracer epoch, nanoseconds.
        at_ns: u64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `"attempt"`, `"quarantine"`).
    pub name: String,
    /// Category (e.g. `"executor"`, `"journal"`, `"artifact"`).
    pub cat: String,
    /// Track (Chrome `tid`): one per recording thread.
    pub track: u64,
    /// Timing: span or instant. **Observational** — never identity.
    pub phase: TracePhase,
    /// Key/value context (scenario, attempt, outcome, ...). Part of the
    /// event's identity; keep values deterministic.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// Convenience: the value of an arg by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn args_json(args: &[(String, String)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect(),
    )
}

/// A lifecycle event in the one-line JSON form the `--progress=json` sink
/// prints: the identity fields of a [`TraceEvent`], tagged
/// `"type":"lifecycle"`. Progress streams and traces share this vocabulary
/// so a scripted consumer can parse either.
#[must_use]
pub fn lifecycle_json(cat: &str, name: &str, args: &[(&str, String)]) -> Json {
    Json::obj([
        ("type", Json::from("lifecycle")),
        ("cat", Json::from(cat)),
        ("name", Json::from(name)),
        (
            "args",
            Json::Obj(
                args.iter()
                    .map(|(k, v)| ((*k).to_string(), Json::from(v.as_str())))
                    .collect(),
            ),
        ),
    ])
}

/// A shared, thread-safe span/event recorder.
///
/// Constructed disabled; [`Tracer::set_enabled`] flips recording at run
/// time. All methods take `&self` so one tracer can serve every worker
/// thread of its owner — recording appends under a mutex, which is
/// amortized against task-granularity work (seconds per span), never the
/// per-cycle hot loop. Each recording thread gets its own track, assigned
/// by the tracer on the thread's first event.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    buffer: Mutex<Buffer>,
}

/// What a [`Tracer`] has recorded, and the track of each thread that
/// recorded it.
#[derive(Debug, Default)]
struct Buffer {
    events: Vec<TraceEvent>,
    /// Tracks in first-event order: the first recording thread is track 0.
    tracks: HashMap<ThreadId, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer (every operation is a cheap early-return until
    /// [`Tracer::set_enabled`] turns it on).
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            buffer: Mutex::new(Buffer::default()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether events record.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span: `None` when disabled, so the matching
    /// [`Tracer::end_span`] is a no-op and the disabled path costs one
    /// branch (the [`crate::StageProfiler`] pattern).
    #[inline]
    #[must_use]
    pub fn begin(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::begin`] and records it on the
    /// calling thread's track. No-op when the span is `None` (tracing was
    /// disabled at `begin`).
    pub fn end_span(&self, cat: &str, name: &str, started: Option<Instant>, args: &[(&str, String)]) {
        let Some(started) = started else { return };
        let start_ns = saturating_ns(self.epoch, started);
        let dur_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.push(cat, name, TracePhase::Complete { start_ns, dur_ns }, args);
    }

    /// Records a point event on the calling thread's track. No-op when
    /// disabled.
    pub fn instant(&self, cat: &str, name: &str, args: &[(&str, String)]) {
        if !self.is_enabled() {
            return;
        }
        let at_ns = saturating_ns(self.epoch, Instant::now());
        self.push(cat, name, TracePhase::Instant { at_ns }, args);
    }

    fn push(&self, cat: &str, name: &str, phase: TracePhase, args: &[(&str, String)]) {
        let mut buffer = self.buffer.lock().expect("trace buffer poisoned");
        let next = buffer.tracks.len() as u64;
        let track = *buffer.tracks.entry(std::thread::current().id()).or_insert(next);
        buffer.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            track,
            phase,
            args: own_args(args),
        });
    }

    /// Takes every recorded event, leaving the buffer empty. Threads keep
    /// their tracks.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.buffer.lock().expect("trace buffer poisoned").events)
    }
}

fn own_args(args: &[(&str, String)]) -> Vec<(String, String)> {
    args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect()
}

fn saturating_ns(epoch: Instant, at: Instant) -> u64 {
    at.checked_duration_since(epoch)
        .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
}

/// Serializes events as a Chrome/Perfetto JSON trace (the object form with
/// a `traceEvents` array), loadable in `ui.perfetto.dev` or
/// `chrome://tracing`. One metadata `thread_name` record labels each track
/// `worker-<id>`; spans become `"X"` (complete) events and instants `"i"`.
/// Timestamps are microseconds (the Chrome convention), carried as f64 with
/// enough precision to recover the original nanoseconds exactly for any
/// trace shorter than ~10^15 ns (see [`parse_chrome_trace`]).
///
/// When `metrics` is given, the snapshot is embedded as a top-level
/// `executorMetrics` key — ignored by trace viewers, round-tripped by the
/// parser.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], metrics: Option<&MetricsSnapshot>) -> String {
    let mut records: Vec<Json> = Vec::with_capacity(events.len() + 8);
    let mut tracks: Vec<u64> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        records.push(Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(track)),
            ("name", Json::from("thread_name")),
            (
                "args",
                Json::obj([("name", Json::from(format!("worker-{track}")))]),
            ),
        ]));
    }
    for e in events {
        let mut rec = vec![
            ("ph", Json::from(match e.phase {
                TracePhase::Complete { .. } => "X",
                TracePhase::Instant { .. } => "i",
            })),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(e.track)),
            ("cat", Json::from(e.cat.as_str())),
            ("name", Json::from(e.name.as_str())),
        ];
        match e.phase {
            TracePhase::Complete { start_ns, dur_ns } => {
                rec.push(("ts", Json::from(start_ns as f64 / 1000.0)));
                rec.push(("dur", Json::from(dur_ns as f64 / 1000.0)));
            }
            TracePhase::Instant { at_ns } => {
                rec.push(("ts", Json::from(at_ns as f64 / 1000.0)));
                // Thread-scoped instant (the default rendering Perfetto
                // expects for per-track markers).
                rec.push(("s", Json::from("t")));
            }
        }
        rec.push(("args", args_json(&e.args)));
        records.push(Json::obj(rec));
    }
    let mut top = vec![
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(records)),
    ];
    if let Some(snapshot) = metrics {
        top.push(("executorMetrics", snapshot.to_json()));
    }
    Json::obj(top).to_string_compact()
}

/// Parses a Chrome trace produced by [`chrome_trace_json`] back into
/// events plus the embedded metrics snapshot (if any). Metadata (`"M"`)
/// records and unknown phases are skipped — they carry no lifecycle
/// information. Timestamps are recovered exactly: `round(us * 1000)`
/// inverts the microsecond conversion for any offset below ~10^15 ns.
///
/// # Errors
///
/// Returns a message when the document is not JSON, lacks a `traceEvents`
/// array, or an event record is structurally malformed.
pub fn parse_chrome_trace(
    text: &str,
) -> Result<(Vec<TraceEvent>, Option<MetricsSnapshot>), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let records = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut events = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let ph = rec
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}]: missing ph"))?;
        let field = |k: &str| {
            rec.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("traceEvents[{i}]: missing {k}"))
        };
        let ns = |k: &str| {
            rec.get(k)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(|us| (us * 1000.0).round() as u64)
                .ok_or_else(|| format!("traceEvents[{i}]: missing {k}"))
        };
        let phase = match ph {
            "M" => continue,
            "X" => TracePhase::Complete { start_ns: ns("ts")?, dur_ns: ns("dur")? },
            "i" => TracePhase::Instant { at_ns: ns("ts")? },
            _ => continue,
        };
        let args = match rec.get("args") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("traceEvents[{i}]: non-string arg {k:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => return Err(format!("traceEvents[{i}]: args must be an object")),
        };
        events.push(TraceEvent {
            name: field("name")?,
            cat: field("cat")?,
            track: rec
                .get("tid")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("traceEvents[{i}]: missing tid"))?,
            phase,
            args,
        });
    }
    let metrics = match doc.get("executorMetrics") {
        Some(v) => Some(
            MetricsSnapshot::from_json(v)
                .ok_or_else(|| "malformed executorMetrics".to_string())?,
        ),
        None => None,
    };
    Ok((events, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u64, name: &str, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "executor".to_string(),
            track,
            phase: TracePhase::Complete { start_ns, dur_ns },
            args: vec![("scenario".to_string(), "bfs".to_string())],
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(!t.is_enabled());
        let s = t.begin();
        assert!(s.is_none());
        t.end_span("executor", "attempt", s, &[]);
        t.instant("executor", "quarantine", &[]);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn enabled_tracer_records_spans_and_instants() {
        let t = Tracer::new();
        t.set_enabled(true);
        let s = t.begin();
        assert!(s.is_some());
        t.end_span("executor", "attempt", s, &[("outcome", "ok".to_string())]);
        t.instant("executor", "steal", &[]);
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].phase, TracePhase::Complete { .. }));
        assert_eq!(events[0].arg("outcome"), Some("ok"));
        assert!(matches!(events[1].phase, TracePhase::Instant { .. }));
        assert!(t.drain().is_empty(), "drain leaves the buffer empty");
    }

    #[test]
    fn each_recording_thread_gets_one_track() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.instant("executor", "steal", &[]);
        t.instant("executor", "steal", &[]);
        std::thread::scope(|s| {
            s.spawn(|| t.instant("executor", "steal", &[]));
        });
        let tracks: Vec<u64> = t.drain().iter().map(|e| e.track).collect();
        let (a, b, other) = (tracks[0], tracks[1], tracks[2]);
        assert_eq!(a, b);
        assert_ne!(a, other);
    }

    #[test]
    fn chrome_export_roundtrips_exactly() {
        let events = vec![
            span(0, "task", 1_234_567, 9_999_001),
            span(2, "attempt", 1_234_568, 42),
            TraceEvent {
                name: "quarantine".to_string(),
                cat: "executor".to_string(),
                track: 2,
                phase: TracePhase::Instant { at_ns: 77_000_000_123 },
                args: vec![],
            },
        ];
        let text = chrome_trace_json(&events, None);
        let (parsed, metrics) = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed, events);
        assert!(metrics.is_none());
    }

    #[test]
    fn chrome_export_embeds_metrics_and_names_tracks() {
        let metrics = MetricsSnapshot {
            counters: vec![("executor.steals".to_string(), 3)],
            gauges: Vec::new(),
        };
        let text = chrome_trace_json(&[span(5, "task", 0, 10)], Some(&metrics));
        assert!(text.contains("\"thread_name\""), "{text}");
        assert!(text.contains("worker-5"), "{text}");
        let (parsed, metrics) = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(metrics.unwrap().counter("executor.steals"), Some(3));
    }

    #[test]
    fn parser_rejects_structural_damage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }

    #[test]
    fn lifecycle_json_matches_identity_vocabulary() {
        let line = lifecycle_json("task", "claim", &[("scenario", "bfs".to_string())]);
        let text = line.to_string_compact();
        assert!(text.starts_with("{\"type\":\"lifecycle\""), "{text}");
        assert!(text.contains("\"cat\":\"task\""), "{text}");
        assert!(text.contains("\"scenario\":\"bfs\""), "{text}");
    }
}

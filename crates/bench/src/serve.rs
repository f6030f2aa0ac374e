//! Sweep-as-a-service: a long-running request server over its own
//! [`Executor`], backed by a content-addressed artifact store.
//!
//! The server accepts **line-delimited JSON requests** (one object per
//! line) and streams back **request-lifecycle events**: one JSON object per
//! line, `{"type":"lifecycle","cat":"serve","name":STAGE,"args":{…}}`, the
//! request id first in its args. Framing is hand-rolled over `BufRead`
//! lines, so the same handler serves a TCP socket (a thread per
//! connection, at most [`MAX_CONNECTIONS`] at once) and stdio (tests, CI
//! smoke).
//!
//! # Protocol
//!
//! Every request names work through the existing vocabularies — nothing
//! here invents a new way to describe a configuration:
//!
//! ```text
//! {"id":"r1","kind":"point","point":"stack=4x4,area=0.2"}
//! {"id":"r2","kind":"space","space":"area=0.1|0.2,latency=60"}
//! {"id":"r3","kind":"experiment","experiment":"fig8"}
//! {"id":"r4","kind":"diff_baseline","baseline":"DIR","candidate":"DIR"}
//! {"id":"r5","kind":"shutdown"}
//! ```
//!
//! Responses are a stream of events per request, in order:
//! `accepted` → (`cached` | `running`) → (`done` | `degraded`). The
//! `done` line carries the result summary and **never** says whether it
//! came from the store or from a fresh computation — byte-identity of
//! repeated responses is part of the contract (provenance rides on the
//! preceding `cached`/`running` event instead).
//!
//! # Cache key and invalidation
//!
//! The store root is `STORE/<code-fingerprint>/`, a PR-6 journal
//! directory: scenario reports land under `scenarios/<suite-digest>/`,
//! experiment artifacts under `experiments/`, all journaled with
//! checksums. Work identity is the [`SuiteKey`] digest (for suites) or
//! the experiment name plus a [`RunSettings`] digest (for experiments);
//! the [`code_fingerprint`] folds in the crate versions, the schema and
//! protocol versions, and the circuit solver's numerics revision, so
//! upgrading the code transparently invalidates the whole store without
//! deleting anything.
//!
//! A cache hit is a checksum-verified file read — scenario hits replay
//! through the journal preload (never constructing a worker pool), and
//! experiment hits are served straight from the verified bytes on disk.
//! Concurrent identical requests dedupe through the executor's in-flight
//! join: both connections claim tasks from the same suite job (see
//! [`Executor::run_suite`]), and each scenario runs exactly once.
//!
//! Each [`Server`] owns its executor, built from its store's journal
//! directory and resume preload, so servers in one process never share a
//! memo, a preload, or a journal.
//!
//! # Transport
//!
//! A session writes through one buffered writer. Events are buffered and
//! flushed once when a request ends, and once after `running`, which
//! precedes blocking work; a warm reply (`accepted` → `cached` → `done`)
//! leaves in a single write. TCP sockets run with `TCP_NODELAY`, so no
//! reply waits on the client's delayed ACK. Request lines are read as
//! bytes under [`MAX_LINE_BYTES`]; an over-long or non-UTF-8 line answers
//! `degraded` and the session goes on.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vs_core::{PowerManagement, ScenarioId};
use vs_telemetry::json::{self, Json};
use vs_telemetry::{
    checksum_hex, fnv1a_64, write_atomic, JournalRecord, ToleranceSpec, SCHEMA_VERSION,
};

use crate::shard::SuiteKey;
use crate::space::{AxisSpace, ConfigPoint};
use crate::{journal, obs, report, Executor, ExperimentId, RunSettings};

/// Version of the request/response protocol. Part of the
/// [`code_fingerprint`], so a protocol bump invalidates the store.
pub const PROTOCOL_VERSION: u32 = 1;

/// Most TCP connections [`serve_tcp`] serves at once. One more is answered
/// `degraded` (`"error":"server busy"`) and closed without a thread.
pub const MAX_CONNECTIONS: usize = 64;

/// Longest request line, in bytes without its `\n`. A longer line is
/// skipped to its end and answered `degraded`.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pause after a failed `accept()`, so a persistent failure such as
/// `EMFILE` (the pending connection stays queued) does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The 16-hex digest naming this build's store subdirectory: FNV-1a over
/// the workspace crate versions, the artifact schema version, the serve
/// protocol version, and the circuit solver's numerics revision
/// ([`vs_circuit::SOLVER_REVISION`]). Two processes share cache entries iff
/// their fingerprints agree; a code upgrade lands in a fresh subdirectory
/// and recomputes from scratch rather than trusting stale bytes.
#[must_use]
pub fn code_fingerprint() -> String {
    fingerprint_for_solver(vs_circuit::SOLVER_REVISION)
}

/// [`code_fingerprint`] as it would read under another solver revision.
fn fingerprint_for_solver(solver_revision: u32) -> String {
    let identity = format!(
        "vs-bench={};vs-telemetry={};schema={};protocol={};solver={}",
        env!("CARGO_PKG_VERSION"),
        vs_telemetry::crate_version(),
        SCHEMA_VERSION,
        PROTOCOL_VERSION,
        solver_revision,
    );
    format!("{:016x}", fnv1a_64(identity.as_bytes()))
}

/// How to open a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Store root; the server works inside `store/<code-fingerprint>/`.
    pub store: PathBuf,
    /// Settings every request is evaluated under. Part of experiment
    /// identity and (via the applied config) of every suite key.
    pub settings: RunSettings,
}

/// What [`Server::open`] found in the store: the startup half of the
/// resume contract, reported so operators can see cache health.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// The fingerprint subdirectory in use.
    pub fingerprint: String,
    /// Scenario reports that passed checksum + identity verification.
    pub verified_scenarios: usize,
    /// Experiment artifacts whose bytes still hash correctly.
    pub verified_experiments: usize,
    /// Journaled entries whose files were missing, torn, or unparseable —
    /// the matching requests recompute exactly that work.
    pub damaged: usize,
    /// Journal lines skipped by the lenient reader.
    pub skipped_lines: usize,
}

/// A persistent artifact server: shared by every connection thread, it
/// owns the store directory, the experiment-artifact index, and the
/// executor whose suite memo makes concurrent duplicate requests join a
/// single computation.
pub struct Server {
    root: PathBuf,
    settings: RunSettings,
    executor: Executor,
    /// Experiment id → (relative file, checksum), last journal record
    /// wins. Guarded so concurrent experiment requests publish atomically.
    experiments: Mutex<HashMap<String, (String, String)>>,
    /// Startup store health.
    pub store_report: StoreReport,
}

impl Server {
    /// Opens (or creates) the store, replays its journal into the
    /// executor's preload, and indexes and verifies experiment artifacts.
    /// The server's executor journals into the store.
    pub fn open(opts: &ServeOptions) -> io::Result<Server> {
        let fingerprint = code_fingerprint();
        let root = opts.store.join(&fingerprint);
        std::fs::create_dir_all(&root)?;

        let state = journal::load_resume(&root)?;
        // Requests re-verify an indexed artifact's bytes on every hit, so a
        // damaged one stays indexed and recomputes when first requested.
        let (experiments, _) = journal::replay(&root, |record| match record {
            JournalRecord::ExperimentDone { id, file, checksum } => Some((id, (file, checksum))),
            _ => None,
        })?;
        let verified_experiments = experiments
            .values()
            .filter(|(file, checksum)| {
                std::fs::read(root.join(file)).is_ok_and(|bytes| checksum_hex(&bytes) == *checksum)
            })
            .count();
        let store_report = StoreReport {
            fingerprint,
            verified_scenarios: state.verified_scenarios,
            verified_experiments,
            damaged: state.damaged + experiments.len() - verified_experiments,
            skipped_lines: state.skipped_lines,
        };
        let executor = Executor::new(Some(root.clone()), state.preloaded);

        Ok(Server {
            root,
            settings: opts.settings,
            executor,
            experiments: Mutex::new(experiments),
            store_report,
        })
    }

    /// The fingerprinted store directory this server reads and writes.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The executor every request of this server runs on.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Handles one request line, streaming response events to `out` and
    /// flushing it once when the request ends, whichever way it ends.
    /// Returns `Ok(false)` when the request asks the server to shut down;
    /// I/O errors are the *writer's* (a vanished client), never the
    /// request's — malformed requests answer with a `degraded` event.
    pub fn handle_line(&self, line: &str, out: &mut dyn Write) -> io::Result<bool> {
        let open = self.dispatch(line, out)?;
        out.flush()?;
        Ok(open)
    }

    /// [`Server::handle_line`] without the final flush.
    fn dispatch(&self, line: &str, out: &mut dyn Write) -> io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                emit(out, "?", "degraded", &[("error", format!("bad request JSON: {e}"))])?;
                return Ok(true);
            }
        };
        let req = parsed
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(kind) = parsed.get("kind").and_then(Json::as_str) else {
            emit(out, &req, "degraded", &[("error", "request needs a \"kind\"".to_string())])?;
            return Ok(true);
        };
        emit(out, &req, "accepted", &[("kind", kind.to_string())])?;
        match kind {
            "point" => self.handle_point(&req, &parsed, out)?,
            "space" => self.handle_space(&req, &parsed, out)?,
            "experiment" => self.handle_experiment(&req, &parsed, out)?,
            "diff_baseline" => self.handle_diff(&req, &parsed, out)?,
            "shutdown" => {
                emit(out, &req, "done", &[])?;
                return Ok(false);
            }
            other => {
                emit(out, &req, "degraded", &[("error", format!("unknown request kind {other:?}"))])?;
            }
        }
        Ok(true)
    }

    /// One configuration point: evaluate (or replay) its full scenario
    /// suite and answer with the suite summary.
    fn handle_point(&self, req: &str, parsed: &Json, out: &mut dyn Write) -> io::Result<()> {
        let Some(spec) = parsed.get("point").and_then(Json::as_str) else {
            return emit(out, req, "degraded", &[("error", "point request needs a \"point\"".to_string())]);
        };
        let point: ConfigPoint = match spec.parse() {
            Ok(p) => p,
            Err(e) => return emit(out, req, "degraded", &[("error", e.to_string())]),
        };
        let (key, summary) = self.run_point(req, &point, out)?;
        let Some(summary) = summary else {
            return Ok(()); // degraded already emitted
        };
        let mut all = vec![("key", key.cache_dir()), ("point", point.to_string())];
        all.extend(summary.args());
        emit(out, req, "done", &all)
    }

    /// Runs (or replays) one point's suite, emitting the provenance event.
    /// Returns the suite's summary, or `None` after emitting `degraded` for
    /// an incomplete (quarantined) suite.
    fn run_point(
        &self,
        req: &str,
        point: &ConfigPoint,
        out: &mut dyn Write,
    ) -> io::Result<(SuiteKey, Option<PointSummary>)> {
        let key = point.suite_key(&self.settings);
        let warm = self.executor.suite_is_warm(&key);
        let stage = if warm { "cached" } else { "running" };
        emit(out, req, stage, &[("key", key.cache_dir()), ("point", point.to_string())])?;

        let cfg = point.apply(&self.settings.config(point.pds.kind(point.area)));
        let reports = self.executor.run_suite(&cfg, &PowerManagement::default());
        if reports.len() != ScenarioId::ALL.len() {
            emit(
                out,
                req,
                "degraded",
                &[
                    ("key", key.cache_dir()),
                    ("expected", ScenarioId::ALL.len().to_string()),
                    ("got", reports.len().to_string()),
                ],
            )?;
            return Ok((key, None));
        }
        let summary = PointSummary {
            scenarios: reports.len(),
            completed: reports.iter().filter(|r| r.completed).count(),
            min_v: reports
                .iter()
                .map(|r| r.min_sm_voltage)
                .fold(f64::INFINITY, f64::min),
        };
        Ok((key, Some(summary)))
    }

    /// An axis space: evaluate every unique point in the grid, streaming
    /// per-point provenance, then answer with grid-level counts.
    fn handle_space(&self, req: &str, parsed: &Json, out: &mut dyn Write) -> io::Result<()> {
        let Some(spec) = parsed.get("space").and_then(Json::as_str) else {
            return emit(out, req, "degraded", &[("error", "space request needs a \"space\"".to_string())]);
        };
        let space: AxisSpace = match spec.parse() {
            Ok(s) => s,
            Err(e) => return emit(out, req, "degraded", &[("error", e.to_string())]),
        };
        let points = space.points();
        if points.is_empty() {
            return emit(out, req, "degraded", &[("error", "the axis space is empty".to_string())]);
        }
        let (mut unique, mut degraded, mut min_v) = (HashSet::new(), 0usize, f64::INFINITY);
        for point in &points {
            if !unique.insert(point.suite_key(&self.settings)) {
                continue;
            }
            match self.run_point(req, point, out)?.1 {
                Some(summary) => min_v = min_v.min(summary.min_v),
                None => degraded += 1,
            }
        }
        if degraded > 0 {
            return emit(
                out,
                req,
                "degraded",
                &[
                    ("points", points.len().to_string()),
                    ("unique", unique.len().to_string()),
                    ("degraded_points", degraded.to_string()),
                ],
            );
        }
        emit(
            out,
            req,
            "done",
            &[
                ("points", points.len().to_string()),
                ("unique", unique.len().to_string()),
                ("min_v", min_v.to_string()),
            ],
        )
    }

    /// The content-addressed identity of one experiment artifact under
    /// this server's settings: `<name>-<digest>` where the digest folds in
    /// every [`RunSettings`] field (bit-exact for the scale).
    fn experiment_store_id(&self, id: ExperimentId) -> String {
        let identity = format!(
            "{};scale={:016x};max_cycles={};seed={}",
            id.name(),
            self.settings.workload_scale.to_bits(),
            self.settings.max_cycles,
            self.settings.seed,
        );
        format!("{}-{:016x}", id.name(), fnv1a_64(identity.as_bytes()))
    }

    /// One experiment: serve the artifact from the store when its bytes
    /// still verify, otherwise run it, persist atomically, and journal.
    fn handle_experiment(&self, req: &str, parsed: &Json, out: &mut dyn Write) -> io::Result<()> {
        let Some(name) = parsed.get("experiment").and_then(Json::as_str) else {
            return emit(out, req, "degraded", &[("error", "experiment request needs an \"experiment\"".to_string())]);
        };
        let Some(id) = ExperimentId::from_name(name) else {
            return emit(out, req, "degraded", &[("error", format!("unknown experiment {name:?}"))]);
        };
        let store_id = self.experiment_store_id(id);

        // Hit = checksum-verified read of the indexed bytes.
        let indexed = self.experiments.lock().expect("experiment index poisoned").get(&store_id).cloned();
        if let Some((file, checksum)) = indexed {
            if let Ok(bytes) = std::fs::read(self.root.join(&file)) {
                if checksum_hex(&bytes) == checksum {
                    emit(out, req, "cached", &[("experiment", name.to_string()), ("file", file.clone())])?;
                    return emit(
                        out,
                        req,
                        "done",
                        &[
                            ("experiment", name.to_string()),
                            ("file", file),
                            ("checksum", checksum),
                            ("bytes", bytes.len().to_string()),
                        ],
                    );
                }
            }
            // Missing or torn entry: fall through and recompute it.
        }

        let file = format!("experiments/{store_id}.jsonl");
        emit(out, req, "running", &[("experiment", name.to_string()), ("file", file.clone())])?;
        let output = id.run(&self.executor, &self.settings);
        let bytes = output.artifact.to_jsonl().into_bytes();
        let path = self.root.join(&file);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        write_atomic(&path, &bytes)?;
        journal::record_experiment(&self.root, &store_id, &file, &bytes)?;
        let checksum = checksum_hex(&bytes);
        self.experiments
            .lock()
            .expect("experiment index poisoned")
            .insert(store_id, (file.clone(), checksum.clone()));
        emit(
            out,
            req,
            "done",
            &[
                ("experiment", name.to_string()),
                ("file", file),
                ("checksum", checksum),
                ("bytes", bytes.len().to_string()),
            ],
        )
    }

    /// A baseline diff: compare two artifact trees through the tolerance
    /// engine and answer with the verdict summary.
    fn handle_diff(&self, req: &str, parsed: &Json, out: &mut dyn Write) -> io::Result<()> {
        let (Some(baseline), Some(candidate)) = (
            parsed.get("baseline").and_then(Json::as_str),
            parsed.get("candidate").and_then(Json::as_str),
        ) else {
            return emit(out, req, "degraded", &[("error", "diff_baseline needs \"baseline\" and \"candidate\"".to_string())]);
        };
        let spec = match parsed.get("tolerances").and_then(Json::as_str) {
            Some(path) => match report::load_tolerances(path) {
                Ok(spec) => spec,
                Err(e) => return emit(out, req, "degraded", &[("error", e)]),
            },
            None => ToleranceSpec::exact(),
        };
        emit(out, req, "running", &[("baseline", baseline.to_string()), ("candidate", candidate.to_string())])?;
        match report::diff_baseline(Path::new(baseline), Path::new(candidate), &spec) {
            Ok(verdict) => emit(
                out,
                req,
                "done",
                &[
                    ("pass", verdict.is_pass().to_string()),
                    ("artifacts", verdict.artifacts.len().to_string()),
                    ("extra_in_candidate", verdict.extra_in_candidate.len().to_string()),
                ],
            ),
            Err(e) => emit(out, req, "degraded", &[("error", e)]),
        }
    }
}

/// One point's suite, as its `done` line summarizes it.
struct PointSummary {
    /// Scenario reports in the suite.
    scenarios: usize,
    /// Of those, the runs whose kernel completed.
    completed: usize,
    /// The lowest SM voltage over the suite, volts.
    min_v: f64,
}

impl PointSummary {
    /// The summary's `done`-line args.
    fn args(&self) -> [(&'static str, String); 3] {
        [
            ("scenarios", self.scenarios.to_string()),
            ("completed", self.completed.to_string()),
            ("min_v", self.min_v.to_string()),
        ]
    }
}

/// Emits one response event: a `serve` lifecycle line (the request id
/// first in its args) written to `out` in one piece, mirrored to the
/// stderr progress sink. Only `running` is flushed here, since blocking
/// work follows it; every other event waits for the flush that ends the
/// request.
fn emit(out: &mut dyn Write, req: &str, stage: &str, args: &[(&str, String)]) -> io::Result<()> {
    obs::progress(|| {
        let detail: Vec<String> = args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("[serve] {req} {stage} {}", detail.join(" "))
    });
    let wire = std::iter::once(("req", req))
        .chain(args.iter().map(|(k, v)| (*k, v.as_str())))
        .map(|(k, v)| (k, Json::from(v)));
    let event = Json::obj([
        ("type", Json::from("lifecycle")),
        ("cat", Json::from("serve")),
        ("name", Json::from(stage)),
        ("args", Json::obj(wire)),
    ]);
    let mut line = event.to_string_compact();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    if stage == "running" {
        out.flush()?;
    }
    Ok(())
}

/// Serves line-delimited requests from `input` until EOF or a `shutdown`
/// request, writing response events to `output`, which should buffer:
/// each request is flushed once, when it ends. Returns whether the
/// session ended with `shutdown`. The stdio transport the CI smoke and
/// tests drive; also the per-connection loop for TCP.
pub fn serve_lines(server: &Server, mut input: impl BufRead, mut output: impl Write) -> io::Result<bool> {
    let mut buf = Vec::new();
    while let Some(line) = read_request(&mut input, &mut buf)? {
        let open = match line {
            Ok(line) => server.handle_line(line, &mut output)?,
            Err(error) => {
                emit(&mut output, "?", "degraded", &[("error", error)])?;
                output.flush()?;
                true
            }
        };
        if !open {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Reads one request line into `buf`, holding at most
/// [`MAX_LINE_BYTES`] + 1 bytes of it: `None` at EOF, `Err` with the
/// reason for a line that is too long (skipped to its end) or not UTF-8.
fn read_request<'b>(input: &mut impl BufRead, buf: &'b mut Vec<u8>) -> io::Result<Option<Result<&'b str, String>>> {
    let mut read_capped = |buf: &mut Vec<u8>| {
        buf.clear();
        input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)
    };
    if read_capped(buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        // Drop the rest of the line, a cap's worth at a time.
        while read_capped(buf)? > 0 && buf.last() != Some(&b'\n') {}
        return Ok(Some(Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| format!("request line is not UTF-8: {e}"))))
}

/// Accepts TCP connections until some connection sends `shutdown`, and
/// serves each on its own thread, all sharing `server`, with at most
/// [`MAX_CONNECTIONS`] live at once: one more is answered `degraded`
/// (`"error":"server busy"`) and closed. A failed `accept()` is reported
/// on the progress sink and the loop goes on. Every socket runs with
/// `TCP_NODELAY` behind a buffered writer, so a warm reply leaves in one
/// write and waits on no timer. Returns once the listener has been
/// released.
pub fn serve_tcp(server: &Arc<Server>, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    // Every handler thread holds a clone, dropped when it exits, so the
    // strong count less this one is the number of live connections.
    let slots = Arc::new(());
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                obs::progress(|| format!("[serve] accept failed: {e}"));
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // Best effort: without it a reply is merely slower.
        let _ = conn.set_nodelay(true);
        if Arc::strong_count(&slots) > MAX_CONNECTIONS {
            let _ = emit(&mut conn, "?", "degraded", &[("error", "server busy".to_string())]);
            continue;
        }
        let (server, stop, slot) = (Arc::clone(server), Arc::clone(&stop), Arc::clone(&slots));
        let session = move || {
            let _slot = slot;
            let Ok(reader) = conn.try_clone() else { return };
            if let Ok(true) = serve_lines(&server, BufReader::new(reader), BufWriter::new(conn)) {
                // Shutdown: flag the accept loop and poke it awake with a
                // throwaway connection.
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr);
            }
        };
        if let Err(e) = std::thread::Builder::new().spawn(session) {
            obs::progress(|| format!("[serve] cannot start a connection thread: {e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The response wire form is byte-stable: a `serve` lifecycle object,
    /// the request id first in its args, one line per event.
    #[test]
    fn emit_writes_the_serve_wire_form() {
        let mut out = Vec::new();
        emit(
            &mut out,
            "r1",
            "done",
            &[("key", "00ab".to_string()), ("scenarios", "12".to_string())],
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"type\":\"lifecycle\",\"cat\":\"serve\",\"name\":\"done\",\
             \"args\":{\"req\":\"r1\",\"key\":\"00ab\",\"scenarios\":\"12\"}}\n"
        );
    }

    #[test]
    fn solver_revision_is_part_of_the_code_identity() {
        // A store written under one solver revision must never answer a
        // build with another: the revision has to move the fingerprint.
        let current = vs_circuit::SOLVER_REVISION;
        let here = code_fingerprint();
        assert_eq!(here, fingerprint_for_solver(current));
        for other in [current - 1, current + 1] {
            assert_ne!(fingerprint_for_solver(other), here);
        }
    }
}

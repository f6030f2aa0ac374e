//! The completion journal: its record schema, its writes, and its one
//! verified replay.
//!
//! Every finished unit of journaled work is persisted twice, in order:
//!
//! 1. its payload is written atomically to a cache file under the run
//!    directory: a scenario's [`CosimReport`] to
//!    `scenarios/<suite-digest>/<scenario>.json` (bit-exact through
//!    `vs_core`'s persisted-report encoding), a dse point's metrics to
//!    `points/<key-digest>.json`, a serve experiment artifact to
//!    `experiments/<store-id>.jsonl`; then
//! 2. a [`JournalRecord`] carrying the file's content checksum is appended
//!    to `journal.jsonl`.
//!
//! Because the record lands strictly *after* its file, a crash at any
//! instant leaves the journal an under-approximation of the completed
//! work — never an over-approximation. [`Replay::load`] reads the journal
//! once, leniently, keeps the last record per unit of work, and verifies
//! each against the bytes on disk; everything else (torn files, corrupted
//! journal lines, checksum mismatches) is counted and recomputed.
//!
//! The chaos harness taps every write here: the caller passes its
//! executor's chaos plan, and a tear the plan schedules replaces the
//! atomic write with a direct truncated one *and suppresses the journal
//! append* — the exact on-disk state a `SIGKILL` between steps 1 and 2
//! produces.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Write as _};
use std::path::Path;
use std::str::FromStr;
use std::sync::Mutex;

use vs_core::{CosimReport, ScenarioId};
use vs_telemetry::{
    checksum_hex,
    json::{self, Json},
    write_atomic,
};

use crate::chaos::Chaos;
use crate::dse::PointMetrics;
use crate::shard::SuiteKey;

/// The completion journal's file name inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Serializes journal appends from concurrent workers (single-line
/// `O_APPEND` writes are already atomic on POSIX; the lock makes the
/// guarantee portable).
static APPEND_LOCK: Mutex<()> = Mutex::new(());

/// One completion record in `journal.jsonl`, appended after the file it
/// names has fully landed on disk. Replay trusts a record only when that
/// file still hashes to `checksum`.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// One (suite, scenario) co-simulation finished and its report was
    /// cached.
    ScenarioDone {
        /// The suite's stable key ([`SuiteKey::to_hex`]: its words are
        /// `f64::to_bits` patterns that exceed 2^53, so they cannot travel
        /// as JSON numbers).
        suite: String,
        /// Scenario name (`ScenarioId::name`).
        scenario: String,
        /// Cache file path, relative to the run directory.
        file: String,
        /// [`checksum_hex`] of the cache file's bytes.
        checksum: String,
        /// Attempts the task spent (schema v2; `None` on records written by
        /// pre-v2 journals, which carried no execution metadata).
        attempts: Option<u64>,
        /// Wall seconds per attempt, oldest first (schema v2; `None` on
        /// pre-v2 records). Observational — replay verification never
        /// consults it; `sweep report` aggregates it.
        attempt_wall_s: Option<Vec<f64>>,
    },
    /// One serve experiment artifact was written.
    ExperimentDone {
        /// The experiment's store id (name plus settings digest).
        id: String,
        /// Artifact file path, relative to the store directory.
        file: String,
        /// [`checksum_hex`] of the artifact's bytes.
        checksum: String,
    },
    /// One design-space configuration point finished and its metrics were
    /// cached (the unit of resumable work of `dse`).
    PointDone {
        /// The point's stable key, encoded as `ScenarioDone::suite` is.
        key: String,
        /// The point in the canonical sweep grammar (`stack=4x4,...`).
        point: String,
        /// Cache file path, relative to the dse output directory.
        file: String,
        /// [`checksum_hex`] of the cache file's bytes.
        checksum: String,
    },
}

/// The unit of work a record completes: a later record of one unit
/// supersedes an earlier one.
#[derive(PartialEq, Eq, Hash)]
enum Unit {
    Scenario(String, String),
    Point(String),
    Experiment(String),
}

impl JournalRecord {
    /// Serializes to the one-line JSON object form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            JournalRecord::ScenarioDone {
                suite,
                scenario,
                file,
                checksum,
                attempts,
                attempt_wall_s,
            } => {
                let mut pairs = vec![
                    ("type".to_string(), Json::from("scenario_done")),
                    ("suite".to_string(), Json::from(suite.as_str())),
                    ("scenario".to_string(), Json::from(scenario.as_str())),
                    ("file".to_string(), Json::from(file.as_str())),
                    ("checksum".to_string(), Json::from(checksum.as_str())),
                ];
                // v2 execution metadata: written only when present, so a
                // metadata-free record serializes exactly as v1 did.
                if attempts.is_some() || attempt_wall_s.is_some() {
                    pairs.push(("v".to_string(), Json::from(2u64)));
                }
                if let Some(n) = attempts {
                    pairs.push(("attempts".to_string(), Json::from(*n)));
                }
                if let Some(walls) = attempt_wall_s {
                    pairs.push((
                        "attempt_wall_s".to_string(),
                        Json::Arr(walls.iter().map(|w| Json::from(*w)).collect()),
                    ));
                }
                Json::Obj(pairs)
            }
            JournalRecord::ExperimentDone { id, file, checksum } => Json::obj([
                ("type", Json::from("experiment_done")),
                ("id", Json::from(id.as_str())),
                ("file", Json::from(file.as_str())),
                ("checksum", Json::from(checksum.as_str())),
            ]),
            JournalRecord::PointDone { key, point, file, checksum } => Json::obj([
                ("type", Json::from("point_done")),
                ("key", Json::from(key.as_str())),
                ("point", Json::from(point.as_str())),
                ("file", Json::from(file.as_str())),
                ("checksum", Json::from(checksum.as_str())),
            ]),
        }
    }

    /// Parses one record. `None` for well-formed JSON that is not a known
    /// journal record (unknown `type`, missing fields): replay treats both
    /// malformed lines and unknown records as "not evidence of completion".
    #[must_use]
    pub fn from_json(v: &Json) -> Option<JournalRecord> {
        let field = |k: &str| v.get(k)?.as_str().map(str::to_string);
        match v.get("type")?.as_str()? {
            "scenario_done" => Some(JournalRecord::ScenarioDone {
                suite: field("suite")?,
                scenario: field("scenario")?,
                file: field("file")?,
                checksum: field("checksum")?,
                // Lenient v2 metadata: absent on v1 records, ignored when
                // malformed — timing metadata must never invalidate a
                // completion record.
                attempts: v.get("attempts").and_then(Json::as_u64),
                attempt_wall_s: v.get("attempt_wall_s").and_then(|w| {
                    w.as_arr()?.iter().map(Json::as_f64).collect::<Option<Vec<_>>>()
                }),
            }),
            "experiment_done" => Some(JournalRecord::ExperimentDone {
                id: field("id")?,
                file: field("file")?,
                checksum: field("checksum")?,
            }),
            "point_done" => Some(JournalRecord::PointDone {
                key: field("key")?,
                point: field("point")?,
                file: field("file")?,
                checksum: field("checksum")?,
            }),
            _ => None,
        }
    }

    /// The unit of work this record completes.
    fn unit(&self) -> Unit {
        match self {
            JournalRecord::ScenarioDone { suite, scenario, .. } => {
                Unit::Scenario(suite.clone(), scenario.clone())
            }
            JournalRecord::PointDone { key, .. } => Unit::Point(key.clone()),
            JournalRecord::ExperimentDone { id, .. } => Unit::Experiment(id.clone()),
        }
    }
}

/// Parses an append-only journal leniently: one record per line, skipping
/// (and counting) lines that are torn, malformed, or of unknown shape. A
/// `SIGKILL` mid-append tears exactly the final line; treating that as "one
/// unit of work unproven" is what makes resume safe.
#[must_use]
pub fn read_journal(text: &str) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line).ok().as_ref().and_then(JournalRecord::from_json) {
            Some(rec) => records.push(rec),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

/// The cache path for one (suite, scenario) report, relative to the run
/// directory: `scenarios/<suite-digest>/<scenario>.json`.
pub fn scenario_cache_rel(key: &SuiteKey, id: ScenarioId) -> String {
    format!("scenarios/{}/{}.json", key.cache_dir(), id.name())
}

/// The cache path for one dse point's metrics, relative to the dse
/// directory: `points/<key-digest>.json`.
pub fn point_cache_rel(key: &SuiteKey) -> String {
    format!("points/{}.json", key.cache_dir())
}

/// One JSON object as a cache file's single line.
fn cache_line(value: &Json) -> Vec<u8> {
    let mut line = value.to_string_compact();
    line.push('\n');
    line.into_bytes()
}

/// Persists one finished scenario: the cache file holds the full suite key
/// (hex words, so the file is self-describing) and the persisted report.
///
/// `attempt_wall_s` travels as schema-v2 journal metadata (the attempt
/// count is its length) so `sweep report` can reconstruct task timings
/// from a resumed run's journal alone. It is observational: replay
/// verification never consults it, and the cache file's bytes (what the
/// checksum covers) do not carry it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn record_scenario(
    dir: &Path,
    chaos: &Chaos,
    key: &SuiteKey,
    id: ScenarioId,
    report: &CosimReport,
    attempt_wall_s: &[f64],
) -> io::Result<()> {
    let rel = scenario_cache_rel(key, id);
    let bytes = cache_line(&Json::obj([
        ("suite", Json::from(key.to_hex().as_str())),
        ("scenario", Json::from(id.name())),
        ("report", report.to_persist_json()),
    ]));
    let record = JournalRecord::ScenarioDone {
        suite: key.to_hex(),
        scenario: id.name().to_string(),
        file: rel.clone(),
        checksum: checksum_hex(&bytes),
        attempts: Some(attempt_wall_s.len() as u64),
        attempt_wall_s: Some(attempt_wall_s.to_vec()),
    };
    write_then_journal(dir, chaos, &rel, &bytes, &record)
}

/// Persists one evaluated dse point: the cache file holds the full key and
/// the point's grammar string (both checked on replay) plus the measured
/// objectives.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn record_point(
    dir: &Path,
    chaos: &Chaos,
    key: &SuiteKey,
    point: &str,
    m: &PointMetrics,
) -> io::Result<()> {
    let rel = point_cache_rel(key);
    let bytes = cache_line(&Json::obj([
        ("key", Json::from(key.to_hex().as_str())),
        ("point", Json::from(point)),
        ("pde", Json::from(m.pde)),
        ("worst_v", Json::from(m.worst_v)),
        ("final_v", Json::from(m.final_v)),
    ]));
    let record = JournalRecord::PointDone {
        key: key.to_hex(),
        point: point.to_string(),
        file: rel.clone(),
        checksum: checksum_hex(&bytes),
    };
    write_then_journal(dir, chaos, &rel, &bytes, &record)
}

/// Persists one serve experiment artifact, `bytes`, as `file` under the
/// store id `id`, and returns its checksum.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn record_experiment(
    dir: &Path,
    chaos: &Chaos,
    id: &str,
    file: &str,
    bytes: &[u8],
) -> io::Result<String> {
    let checksum = checksum_hex(bytes);
    let record = JournalRecord::ExperimentDone {
        id: id.to_string(),
        file: file.to_string(),
        checksum: checksum.clone(),
    };
    write_then_journal(dir, chaos, file, bytes, &record)?;
    Ok(checksum)
}

/// Writes `bytes` atomically to `dir/rel`, creating its directory, then
/// appends `record` to the journal: the order that keeps the journal an
/// under-approximation of the work on disk. A tear `chaos` schedules for
/// the file's name instead writes a truncated file directly and skips the
/// record — the state a `SIGKILL` between the two steps leaves.
fn write_then_journal(
    dir: &Path,
    chaos: &Chaos,
    rel: &str,
    bytes: &[u8],
    record: &JournalRecord,
) -> io::Result<()> {
    let path = dir.join(rel);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file_name = path.file_name().map(|name| name.to_string_lossy().into_owned());
    if let Some(cut) = file_name.and_then(|name| chaos.torn_write(&name, bytes.len())) {
        return std::fs::write(&path, &bytes[..cut]);
    }
    write_atomic(&path, bytes)?;
    let mut line = record.to_json().to_string_compact();
    line.push('\n');
    // One `write` per line keeps concurrent appenders from interleaving
    // partial lines on POSIX append-mode files; the lock keeps it portable.
    let _guard = APPEND_LOCK.lock().expect("journal append lock poisoned");
    let mut journal = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(JOURNAL_FILE))?;
    journal.write_all(line.as_bytes())
}

/// Replays `dir`'s completion journal leniently, verifying nothing: a
/// missing journal is an empty replay, lines the reader cannot parse are
/// skipped and counted, and of the records `pick` keys, the last one per
/// key wins — a resumed-then-crashed run re-journals work it redid, and
/// the newest file is the one on disk.
pub(crate) fn replay<K: Eq + Hash, V>(
    dir: &Path,
    pick: impl Fn(JournalRecord) -> Option<(K, V)>,
) -> io::Result<(HashMap<K, V>, usize)> {
    let text = match std::fs::read_to_string(dir.join(JOURNAL_FILE)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((HashMap::new(), 0)),
        Err(e) => return Err(e),
    };
    let (records, skipped) = read_journal(&text);
    Ok((records.into_iter().filter_map(pick).collect(), skipped))
}

/// How many records of one kind a [`Replay`] verified, and how many it
/// found damaged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Records whose files passed verification.
    pub verified: usize,
    /// Records whose files were missing, torn, mismatched or unparseable:
    /// their work recomputes.
    pub damaged: usize,
}

impl Tally {
    /// Counts one record's verification outcome and passes it on.
    fn count<T>(&mut self, verified: Option<T>) -> Option<T> {
        match verified {
            Some(_) => self.verified += 1,
            None => self.damaged += 1,
        }
        verified
    }
}

/// What one pass over a run directory's journal recovered: the verified
/// work of each kind, and per kind how many records verified or not. The
/// executor takes the scenario reports and dse points
/// ([`crate::Executor::new`]); a serve store takes its experiment index.
#[derive(Debug, Default)]
pub struct Replay {
    /// Verified scenario reports per suite, which suites prefill instead
    /// of running.
    pub reports: HashMap<SuiteKey, Vec<(ScenarioId, CosimReport)>>,
    /// Verified dse point metrics, which `run_dse` takes instead of
    /// evaluating.
    pub metrics: HashMap<SuiteKey, PointMetrics>,
    /// Verified serve experiment artifacts: store id → (file, checksum).
    pub artifacts: HashMap<String, (String, String)>,
    /// Scenario records.
    pub scenarios: Tally,
    /// Point records.
    pub points: Tally,
    /// Experiment records.
    pub experiments: Tally,
    /// Journal lines skipped by the lenient reader (torn tail, corruption,
    /// unknown records).
    pub skipped_lines: usize,
}

impl Replay {
    /// Reads `dir`'s journal once and verifies the last record of each
    /// unit against the bytes on disk: a scenario's or point's cache file
    /// by checksum, parse and identity (and a scenario's by a full report
    /// parse), an experiment artifact by checksum. A missing journal is an
    /// empty replay, never an error: the journal is an optimization, not a
    /// source of truth.
    ///
    /// # Errors
    ///
    /// Propagates only filesystem errors from reading the journal itself
    /// (other than it not existing).
    pub fn load(dir: &Path) -> io::Result<Replay> {
        let (last, skipped_lines) = replay(dir, |record| Some((record.unit(), record)))?;
        let mut replay = Replay { skipped_lines, ..Replay::default() };
        for record in last.into_values() {
            match record {
                JournalRecord::ScenarioDone { suite, scenario, file, checksum, .. } => {
                    let verified = verify_scenario(dir, &suite, &scenario, &file, &checksum);
                    if let Some((key, id, report)) = replay.scenarios.count(verified) {
                        replay.reports.entry(key).or_default().push((id, report));
                    }
                }
                JournalRecord::PointDone { key, point, file, checksum } => {
                    let verified = verify_point(dir, &key, &point, &file, &checksum);
                    if let Some((key, metrics)) = replay.points.count(verified) {
                        replay.metrics.insert(key, metrics);
                    }
                }
                JournalRecord::ExperimentDone { id, file, checksum } => {
                    let verified = verified_bytes(dir, &file, &checksum);
                    if replay.experiments.count(verified).is_some() {
                        replay.artifacts.insert(id, (file, checksum));
                    }
                }
            }
        }
        Ok(replay)
    }
}

/// The bytes of `dir/file`, if they hash to `checksum`.
fn verified_bytes(dir: &Path, file: &str, checksum: &str) -> Option<Vec<u8>> {
    let bytes = std::fs::read(dir.join(file)).ok()?;
    (checksum_hex(&bytes) == checksum).then_some(bytes)
}

/// The one-line cache file `dir/file`, if it hashes to `checksum`, parses,
/// and holds each `(field, value)` of `identity`.
fn verified_cache(
    dir: &Path,
    file: &str,
    checksum: &str,
    identity: [(&str, &str); 2],
) -> Option<Json> {
    let bytes = verified_bytes(dir, file, checksum)?;
    let parsed = json::parse(std::str::from_utf8(&bytes).ok()?.trim()).ok()?;
    for (field, value) in identity {
        if parsed.get(field)?.as_str()? != value {
            return None;
        }
    }
    Some(parsed)
}

/// Verifies one scenario record: its cache file agrees with the record's
/// suite and scenario and round-trips into a [`CosimReport`].
fn verify_scenario(
    dir: &Path,
    suite_hex: &str,
    scenario_name: &str,
    file: &str,
    checksum: &str,
) -> Option<(SuiteKey, ScenarioId, CosimReport)> {
    let key = SuiteKey::from_hex(suite_hex)?;
    let id = ScenarioId::from_str(scenario_name).ok()?;
    let identity = [("suite", suite_hex), ("scenario", scenario_name)];
    let parsed = verified_cache(dir, file, checksum, identity)?;
    let report = CosimReport::from_persist_json(parsed.get("report")?)?;
    Some((key, id, report))
}

/// Verifies one point record: its cache file agrees with the record's key
/// and point and holds the three objectives.
fn verify_point(
    dir: &Path,
    key_hex: &str,
    point: &str,
    file: &str,
    checksum: &str,
) -> Option<(SuiteKey, PointMetrics)> {
    let key = SuiteKey::from_hex(key_hex)?;
    let parsed = verified_cache(dir, file, checksum, [("key", key_hex), ("point", point)])?;
    let metrics = PointMetrics {
        pde: parsed.get("pde")?.as_f64()?,
        worst_v: parsed.get("worst_v")?.as_f64()?,
        final_v: parsed.get("final_v")?.as_f64()?,
    };
    Some((key, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_core::{CosimConfig, CosimPool, PowerManagement};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vs-bench-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_records_roundtrip() {
        let records = vec![
            JournalRecord::ScenarioDone {
                suite: "00000000000000aa.3fc999999999999a".to_string(),
                scenario: "bfs".to_string(),
                file: "scenarios/12ab/bfs.json".to_string(),
                checksum: "85944171f73967e8".to_string(),
                attempts: None,
                attempt_wall_s: None,
            },
            JournalRecord::ScenarioDone {
                suite: "00000000000000aa.3fc999999999999a".to_string(),
                scenario: "dnn".to_string(),
                file: "scenarios/12ab/dnn.json".to_string(),
                checksum: "85944171f73967e9".to_string(),
                attempts: Some(3),
                attempt_wall_s: Some(vec![0.25, 1.5, 12.0625]),
            },
            JournalRecord::ExperimentDone {
                id: "fig17".to_string(),
                file: "fig17.jsonl".to_string(),
                checksum: "00000000000000ff".to_string(),
            },
            JournalRecord::PointDone {
                key: "00000000000000aa".to_string(),
                point: "stack=4x4,area=0.2".to_string(),
                file: "points/12ab.json".to_string(),
                checksum: "00000000000000fe".to_string(),
            },
        ];
        for rec in &records {
            let parsed = JournalRecord::from_json(&rec.to_json()).unwrap();
            assert_eq!(&parsed, rec);
        }
    }

    #[test]
    fn scenario_done_schema_versioning() {
        // A metadata-free record serializes exactly as a v1 journal wrote it:
        // no "v" key, no metadata keys. Old readers keep working.
        let v1 = JournalRecord::ScenarioDone {
            suite: "aa".to_string(),
            scenario: "bfs".to_string(),
            file: "f.json".to_string(),
            checksum: "00".to_string(),
            attempts: None,
            attempt_wall_s: None,
        };
        let line = v1.to_json().to_string_compact();
        assert!(!line.contains("\"v\""), "v1 form must omit the version tag: {line}");
        assert!(!line.contains("attempt"), "v1 form must omit metadata: {line}");

        // A metadata-bearing record is tagged v2, field order pinned, and
        // round-trips the walls.
        let v2 = JournalRecord::ScenarioDone {
            suite: "aa".to_string(),
            scenario: "bfs".to_string(),
            file: "f.json".to_string(),
            checksum: "00".to_string(),
            attempts: Some(2),
            attempt_wall_s: Some(vec![0.5, 0.125]),
        };
        assert_eq!(
            v2.to_json().to_string_compact(),
            "{\"type\":\"scenario_done\",\"suite\":\"aa\",\"scenario\":\"bfs\",\
             \"file\":\"f.json\",\"checksum\":\"00\",\"v\":2,\"attempts\":2,\
             \"attempt_wall_s\":[0.5,0.125]}"
        );
        assert_eq!(JournalRecord::from_json(&v2.to_json()).unwrap(), v2);

        // Malformed metadata (wrong types) degrades to None rather than
        // invalidating the completion record.
        let text = "{\"type\":\"scenario_done\",\"suite\":\"aa\",\"scenario\":\"bfs\",\
                    \"file\":\"f.json\",\"checksum\":\"00\",\
                    \"attempts\":\"three\",\"attempt_wall_s\":[0.5,\"fast\"]}";
        let parsed = JournalRecord::from_json(&json::parse(text).unwrap()).unwrap();
        assert_eq!(parsed, v1);
    }

    #[test]
    fn journal_reader_is_lenient() {
        let good = JournalRecord::ExperimentDone {
            id: "fig8".to_string(),
            file: "fig8.jsonl".to_string(),
            checksum: "0".repeat(16),
        };
        let line = good.to_json().to_string_compact();
        // A corrupt line, an unknown record type, and a torn tail all skip.
        let text = format!(
            "{line}\n{{{{not json\n{{\"type\":\"martian\"}}\n{}\n{}",
            line,
            &line[..line.len() / 2]
        );
        let (records, skipped) = read_journal(&text);
        assert_eq!(records, vec![good.clone(), good]);
        assert_eq!(skipped, 3);
    }

    /// The panic hook's `internal_error` line goes to stderr, never into a
    /// journal: a journal that holds one skips it like any unknown line.
    #[test]
    fn an_internal_error_line_is_no_journal_record() {
        let dir = tmp_dir("internal-error");
        let line = crate::internal_error_line("sweep", "panicked at 'boom'");
        std::fs::write(dir.join(JOURNAL_FILE), format!("{line}\n")).unwrap();
        let replay = Replay::load(&dir).unwrap();
        assert_eq!(replay.skipped_lines, 1);
        assert_eq!(replay.scenarios, Tally::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scenario_records_replay_and_flag_damage() {
        let dir = tmp_dir("roundtrip");
        // Empty directory: no journal is an empty replay, not an error.
        let empty = Replay::load(&dir).unwrap();
        assert!(empty.reports.is_empty());
        assert_eq!(empty.scenarios, Tally::default());

        let cfg = CosimConfig {
            workload_scale: 0.02,
            max_cycles: 5_000,
            ..CosimConfig::default()
        };
        let pm = PowerManagement::default();
        let key = SuiteKey::new(&cfg, &pm);
        let mut pool = CosimPool::new();
        let a = pool.run_scenario(&cfg, ScenarioId::Bfs);
        let b = pool.run_scenario(&cfg, ScenarioId::Hotspot);
        let chaos = Chaos::default();
        record_scenario(&dir, &chaos, &key, ScenarioId::Bfs, &a, &[0.1]).unwrap();
        record_scenario(&dir, &chaos, &key, ScenarioId::Hotspot, &b, &[0.1]).unwrap();
        // Re-journaling the same scenario must dedupe (last record wins).
        record_scenario(&dir, &chaos, &key, ScenarioId::Bfs, &a, &[0.1]).unwrap();

        let replay = Replay::load(&dir).unwrap();
        assert_eq!(replay.scenarios, Tally { verified: 2, damaged: 0 });
        assert_eq!(replay.skipped_lines, 0);
        let entries = &replay.reports[&key];
        assert_eq!(entries.len(), 2);
        let restored = &entries
            .iter()
            .find(|(id, _)| *id == ScenarioId::Bfs)
            .unwrap()
            .1;
        assert_eq!(restored.cycles, a.cycles);
        assert_eq!(
            restored.ledger.board_input_j.to_bits(),
            a.ledger.board_input_j.to_bits()
        );
        assert_eq!(restored.min_sm_voltage.to_bits(), a.min_sm_voltage.to_bits());

        // Truncate one cache file: its record must turn damaged while the
        // other survives.
        let rel = scenario_cache_rel(&key, ScenarioId::Bfs);
        let bytes = std::fs::read(dir.join(&rel)).unwrap();
        std::fs::write(dir.join(&rel), &bytes[..bytes.len() / 2]).unwrap();
        let replay = Replay::load(&dir).unwrap();
        assert_eq!(replay.scenarios, Tally { verified: 1, damaged: 1 });
        assert_eq!(
            replay.reports[&key][0].0,
            ScenarioId::Hotspot,
            "only the intact record replays"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_and_experiment_records_replay_bitexact_and_flag_damage() {
        let dir = tmp_dir("points");
        let settings = crate::RunSettings::tiny_profile();
        let a: crate::space::ConfigPoint = "area=0.2".parse().unwrap();
        let b: crate::space::ConfigPoint = "area=0.4,pds=circuit".parse().unwrap();
        let ka = a.suite_key(&settings);
        let kb = b.suite_key(&settings);
        let ma = PointMetrics { pde: 0.912345678901234, worst_v: 0.87, final_v: 0.99 };
        let mb = PointMetrics { pde: 0.93, worst_v: 0.81, final_v: 0.98 };
        let chaos = Chaos::default();
        record_point(&dir, &chaos, &ka, &a.to_string(), &ma).unwrap();
        record_point(&dir, &chaos, &kb, &b.to_string(), &mb).unwrap();
        // Re-journaling dedupes (last record wins).
        record_point(&dir, &chaos, &ka, &a.to_string(), &ma).unwrap();
        let artifact = b"{\"type\":\"manifest\"}\n{\"type\":\"metrics\"}\n";
        let file = "experiments/fig8.jsonl";
        let checksum = record_experiment(&dir, &chaos, "fig8-00", file, artifact).unwrap();
        assert_eq!(checksum, checksum_hex(artifact));

        let replay = Replay::load(&dir).unwrap();
        assert_eq!(replay.points, Tally { verified: 2, damaged: 0 });
        assert_eq!(replay.experiments, Tally { verified: 1, damaged: 0 });
        assert_eq!(replay.artifacts["fig8-00"], (file.to_string(), checksum));
        let ra = &replay.metrics[&ka];
        // Metrics survive the JSON round-trip bit-exactly (shortest
        // round-trip float formatting), so resumed artifacts can be
        // byte-identical to undisturbed ones.
        assert_eq!(ra.pde.to_bits(), ma.pde.to_bits());
        assert_eq!(ra.worst_v.to_bits(), ma.worst_v.to_bits());
        assert_eq!(ra.final_v.to_bits(), ma.final_v.to_bits());

        // Tamper with one point cache and the artifact: only those records
        // turn damaged, each under its own kind.
        let rel = point_cache_rel(&ka);
        let bytes = std::fs::read(dir.join(&rel)).unwrap();
        std::fs::write(dir.join(&rel), &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(dir.join(file), b"{\"type\":").unwrap();
        let replay = Replay::load(&dir).unwrap();
        assert_eq!(replay.points, Tally { verified: 1, damaged: 1 });
        assert!(replay.metrics.contains_key(&kb));
        assert_eq!(replay.experiments, Tally { verified: 0, damaged: 1 });
        assert!(replay.artifacts.is_empty());
        assert_eq!(replay.scenarios, Tally::default(), "no scenario records here");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

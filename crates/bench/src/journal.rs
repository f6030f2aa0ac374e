//! The sweep's journaled-resume layer: per-scenario report caching plus
//! journal replay.
//!
//! While a sweep runs, every finished scenario task is persisted twice,
//! in order:
//!
//! 1. its [`CosimReport`] is written atomically to a per-suite cache file
//!    (`scenarios/<suite-digest>/<scenario>.json`, bit-exact through
//!    `vs_core`'s persisted-report encoding), then
//! 2. a [`JournalRecord::ScenarioDone`] carrying the file's content
//!    checksum is appended to `journal.jsonl`.
//!
//! Because the journal line lands strictly *after* its artifact, a crash at
//! any instant leaves the journal an under-approximation of the completed
//! work — never an over-approximation. `sweep --resume <dir>` calls
//! [`load_resume`], which replays the journal leniently, re-hashes every
//! named file, parses the cached reports, and returns only the entries that
//! survive all three checks; everything else (torn files, corrupted journal
//! lines, checksum mismatches) is counted as damaged and recomputed.
//!
//! The chaos harness taps both writes here: the caller passes its
//! executor's chaos plan, and a tear the plan schedules replaces the
//! atomic write with a direct truncated one *and suppresses the journal
//! append* — the exact on-disk state a `SIGKILL` between steps 1 and 2
//! produces.

use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::Path;
use std::str::FromStr;
use std::sync::Mutex;

use vs_core::{CosimReport, ScenarioId};
use vs_telemetry::{
    append_journal, checksum_hex,
    json::{self, Json},
    read_journal, write_atomic, JournalRecord,
};

use crate::chaos::Chaos;
use crate::dse::PointMetrics;
use crate::shard::{Preload, SuiteKey};

/// The completion journal's file name inside a sweep directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Serializes journal appends from concurrent sweep workers (single-line
/// `O_APPEND` writes are already atomic on POSIX; the lock makes the
/// guarantee portable).
static APPEND_LOCK: Mutex<()> = Mutex::new(());

/// The cache path for one (suite, scenario) report, relative to the sweep
/// directory: `scenarios/<suite-digest>/<scenario>.json`.
pub fn scenario_cache_rel(key: &SuiteKey, id: ScenarioId) -> String {
    format!("scenarios/{}/{}.json", key.cache_dir(), id.name())
}

/// The one-line cache-file payload: the full suite key (hex words, so the
/// file is self-describing) plus the persisted report.
fn payload(key: &SuiteKey, id: ScenarioId, report: &CosimReport) -> String {
    let mut line = Json::obj([
        ("suite", Json::from(key.to_hex().as_str())),
        ("scenario", Json::from(id.name())),
        ("report", report.to_persist_json()),
    ])
    .to_string_compact();
    line.push('\n');
    line
}

/// Persists one finished scenario: atomic cache write, then journal append.
/// A tear `chaos` schedules (keyed by the cache file's name) instead writes
/// a truncated file directly and skips the journal line.
///
/// `attempts` and `attempt_wall_s` travel as schema-v2 journal metadata
/// (attempt count and per-attempt wall seconds) so `sweep report` can
/// reconstruct task timings from a resumed run's journal alone. They are
/// observational: replay verification never consults them, and the cache
/// file's bytes (what the checksum covers) carry neither.
///
/// # Errors
///
/// Propagates filesystem errors; the shard executor treats them as
/// best-effort (a lost record costs a recompute on resume, not the sweep).
pub(crate) fn record_scenario(
    dir: &Path,
    chaos: &Chaos,
    key: &SuiteKey,
    id: ScenarioId,
    report: &CosimReport,
    attempts: u32,
    attempt_wall_s: &[f64],
) -> io::Result<()> {
    let rel = scenario_cache_rel(key, id);
    let bytes = payload(key, id, report).into_bytes();
    let record = JournalRecord::ScenarioDone {
        suite: key.to_hex(),
        scenario: id.name().to_string(),
        file: rel.clone(),
        checksum: checksum_hex(&bytes),
        attempts: Some(u64::from(attempts)),
        attempt_wall_s: Some(attempt_wall_s.to_vec()),
    };
    write_then_journal(dir, chaos, &rel, &bytes, &record)
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
    append(dir, record)
}

/// Appends `record` to `dir`'s journal under the append lock.
fn append(dir: &Path, record: &JournalRecord) -> io::Result<()> {
    let _guard = APPEND_LOCK.lock().expect("journal append lock poisoned");
    append_journal(&dir.join(JOURNAL_FILE), record)
}

/// Appends an experiment-artifact completion record to the journal. Only
/// the serve store journals experiment artifacts: a sweep recomputes every
/// experiment on `--resume`, so it never reads such a record back.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn record_experiment(dir: &Path, id: &str, file: &str, bytes: &[u8]) -> io::Result<()> {
    let record = JournalRecord::ExperimentDone {
        id: id.to_string(),
        file: file.to_string(),
        checksum: checksum_hex(bytes),
    };
    append(dir, &record)
}

/// The cache path for one dse point's metrics, relative to the dse
/// directory: `points/<key-digest>.json`.
pub fn point_cache_rel(key: &SuiteKey) -> String {
    format!("points/{}.json", key.cache_dir())
}

/// The one-line point-cache payload: the full suite key and the point's
/// grammar string (both for identity verification on replay) plus the
/// measured objectives.
fn point_payload(key: &SuiteKey, point: &str, m: &PointMetrics) -> String {
    let mut line = Json::obj([
        ("key", Json::from(key.to_hex().as_str())),
        ("point", Json::from(point)),
        ("pde", Json::from(m.pde)),
        ("worst_v", Json::from(m.worst_v)),
        ("final_v", Json::from(m.final_v)),
    ])
    .to_string_compact();
    line.push('\n');
    line
}

/// Persists one evaluated dse point with the same crash-safety order as
/// [`record_scenario`]: atomic cache write first, journal append second.
/// A tear `chaos` schedules (keyed by the cache file's name) writes a
/// truncated file directly and skips the journal line.
///
/// # Errors
///
/// Propagates filesystem errors; dse treats them as best-effort (a lost
/// record costs a recompute on resume, not the run).
pub(crate) fn record_point(
    dir: &Path,
    chaos: &Chaos,
    key: &SuiteKey,
    point: &str,
    metrics: &PointMetrics,
) -> io::Result<()> {
    let rel = point_cache_rel(key);
    let bytes = point_payload(key, point, metrics).into_bytes();
    let record = JournalRecord::PointDone {
        key: key.to_hex(),
        point: point.to_string(),
        file: rel.clone(),
        checksum: checksum_hex(&bytes),
    };
    write_then_journal(dir, chaos, &rel, &bytes, &record)
}

/// What a dse journal replay recovered.
#[derive(Debug, Default)]
pub struct DseResumeState {
    /// Verified point metrics keyed by [`SuiteKey::to_hex`], ready for
    /// [`crate::dse::DseOptions::preloaded`].
    pub verified: HashMap<String, PointMetrics>,
    /// Point records whose files were missing, torn, mismatched, or
    /// unparseable — their points recompute.
    pub damaged: usize,
    /// Journal lines skipped by the lenient reader (torn tail, corruption).
    pub skipped_lines: usize,
}

/// Replays `dir`'s completion journal for dse point records, verifying
/// each against the bytes on disk (checksum, parse, and key/point identity
/// agreement). Mirrors [`load_resume`]: a missing journal is an empty
/// state, duplicates keep the last occurrence, and damage means recompute,
/// never error. Points journaled under different settings key differently,
/// so stale caches simply miss.
///
/// # Errors
///
/// Propagates only filesystem errors from reading the journal itself.
pub fn load_dse_resume(dir: &Path) -> io::Result<DseResumeState> {
    let (points, skipped_lines) = replay(dir, |record| match record {
        JournalRecord::PointDone { key, point, file, checksum } => {
            Some((key, (point, file, checksum)))
        }
        _ => None,
    })?;
    let mut state = DseResumeState { skipped_lines, ..DseResumeState::default() };
    for (key_hex, (point, file, checksum)) in points {
        match verify_point(dir, &key_hex, &point, &file, &checksum) {
            Some(metrics) => {
                state.verified.insert(key_hex, metrics);
            }
            None => state.damaged += 1,
        }
    }
    Ok(state)
}

/// Replays `dir`'s completion journal leniently: a missing journal is an
/// empty replay, lines the reader cannot parse are skipped and counted, and
/// of the records `pick` keys, the last one per key wins — a
/// resumed-then-crashed run re-journals work it redid, and the newest file
/// is the one on disk.
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

/// Full verification of one point record: the named file must exist, hash
/// to the journaled checksum, parse, and agree with the record's key and
/// point identity.
fn verify_point(
    dir: &Path,
    key_hex: &str,
    point: &str,
    file: &str,
    checksum: &str,
) -> Option<PointMetrics> {
    SuiteKey::from_hex(key_hex)?;
    let bytes = std::fs::read(dir.join(file)).ok()?;
    if checksum_hex(&bytes) != checksum {
        return None;
    }
    let parsed = json::parse(std::str::from_utf8(&bytes).ok()?.trim()).ok()?;
    if parsed.get("key")?.as_str()? != key_hex || parsed.get("point")?.as_str()? != point {
        return None;
    }
    Some(PointMetrics {
        pde: parsed.get("pde")?.as_f64()?,
        worst_v: parsed.get("worst_v")?.as_f64()?,
        final_v: parsed.get("final_v")?.as_f64()?,
    })
}

/// What a journal replay recovered from a sweep directory.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Verified (suite, scenario) reports, ready for
    /// [`crate::Executor::new`].
    pub preloaded: Preload,
    /// Scenario records that survived checksum + parse verification.
    pub verified_scenarios: usize,
    /// Scenario records whose files were missing, torn, or unparseable —
    /// their work recomputes.
    pub damaged: usize,
    /// Journal lines skipped by the lenient reader (torn tail, corruption).
    pub skipped_lines: usize,
}

/// Replays `dir`'s completion journal, verifying every scenario record
/// against the bytes actually on disk. A missing journal yields an empty
/// state (the resume then recomputes everything), never an error: the
/// journal is an optimization, not a source of truth.
///
/// Duplicate records for the same (suite, scenario) keep the *last*
/// occurrence — a resumed-then-crashed sweep re-journals work it redid, and
/// the newest file is the one on disk.
///
/// # Errors
///
/// Propagates only filesystem errors from reading the journal itself
/// (other than it not existing).
pub fn load_resume(dir: &Path) -> io::Result<ResumeState> {
    // Point records belong to the dse resume path ([`load_dse_resume`]),
    // experiment records to the serve store ([`crate::serve::Server::open`]);
    // the sweep reader ignores both.
    let (scenarios, skipped_lines) = replay(dir, |record| match record {
        JournalRecord::ScenarioDone { suite, scenario, file, checksum, .. } => {
            Some(((suite, scenario), (file, checksum)))
        }
        _ => None,
    })?;
    let mut state = ResumeState { skipped_lines, ..ResumeState::default() };
    for ((suite_hex, scenario_name), (file, checksum)) in scenarios {
        match verify_scenario(dir, &suite_hex, &scenario_name, &file, &checksum) {
            Some((key, id, report)) => {
                state.verified_scenarios += 1;
                state.preloaded.entry(key).or_default().push((id, report));
            }
            None => state.damaged += 1,
        }
    }
    Ok(state)
}

/// Full verification of one scenario record: the named file must exist,
/// hash to the journaled checksum, parse, agree with the record's suite and
/// scenario identity, and round-trip into a [`CosimReport`].
fn verify_scenario(
    dir: &Path,
    suite_hex: &str,
    scenario_name: &str,
    file: &str,
    checksum: &str,
) -> Option<(SuiteKey, ScenarioId, CosimReport)> {
    let key = SuiteKey::from_hex(suite_hex)?;
    let id = ScenarioId::from_str(scenario_name).ok()?;
    let bytes = std::fs::read(dir.join(file)).ok()?;
    if checksum_hex(&bytes) != checksum {
        return None;
    }
    let parsed = json::parse(std::str::from_utf8(&bytes).ok()?.trim()).ok()?;
    if parsed.get("suite")?.as_str()? != suite_hex
        || parsed.get("scenario")?.as_str()? != scenario_name
    {
        return None;
    }
    let report = CosimReport::from_persist_json(parsed.get("report")?)?;
    Some((key, id, report))
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
    fn record_then_replay_roundtrips_and_flags_damage() {
        let dir = tmp_dir("roundtrip");
        // Empty directory: no journal is an empty state, not an error.
        let empty = load_resume(&dir).unwrap();
        assert!(empty.preloaded.is_empty());
        assert_eq!(empty.damaged, 0);

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
        record_scenario(&dir, &chaos, &key, ScenarioId::Bfs, &a, 1, &[0.1]).unwrap();
        record_scenario(&dir, &chaos, &key, ScenarioId::Hotspot, &b, 1, &[0.1]).unwrap();
        // Re-journaling the same scenario must dedupe (last record wins).
        record_scenario(&dir, &chaos, &key, ScenarioId::Bfs, &a, 1, &[0.1]).unwrap();

        let state = load_resume(&dir).unwrap();
        assert_eq!(state.verified_scenarios, 2);
        assert_eq!(state.damaged, 0);
        assert_eq!(state.skipped_lines, 0);
        let entries = &state.preloaded[&key];
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
        let state = load_resume(&dir).unwrap();
        assert_eq!(state.verified_scenarios, 1);
        assert_eq!(state.damaged, 1);
        assert_eq!(
            state.preloaded[&key][0].0,
            ScenarioId::Hotspot,
            "only the intact record replays"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn point_records_roundtrip_bitexact_and_flag_damage() {
        let dir = tmp_dir("points");
        assert!(load_dse_resume(&dir).unwrap().verified.is_empty());

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

        let state = load_dse_resume(&dir).unwrap();
        assert_eq!(state.verified.len(), 2);
        assert_eq!(state.damaged, 0);
        let ra = &state.verified[&ka.to_hex()];
        // Metrics survive the JSON round-trip bit-exactly (shortest
        // round-trip float formatting), so resumed artifacts can be
        // byte-identical to undisturbed ones.
        assert_eq!(ra.pde.to_bits(), ma.pde.to_bits());
        assert_eq!(ra.worst_v.to_bits(), ma.worst_v.to_bits());
        assert_eq!(ra.final_v.to_bits(), ma.final_v.to_bits());

        // Tamper with one cache file: only that record turns damaged.
        let rel = point_cache_rel(&ka);
        let bytes = std::fs::read(dir.join(&rel)).unwrap();
        std::fs::write(dir.join(&rel), &bytes[..bytes.len() / 2]).unwrap();
        let state = load_dse_resume(&dir).unwrap();
        assert_eq!(state.verified.len(), 1);
        assert_eq!(state.damaged, 1);
        assert!(state.verified.contains_key(&kb.to_hex()));

        // Scenario and point records coexist in one journal: the sweep
        // reader ignores point records and vice versa.
        let sweep_state = load_resume(&dir).unwrap();
        assert_eq!(sweep_state.verified_scenarios, 0);
        assert_eq!(sweep_state.damaged, 0, "point records are not sweep damage");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

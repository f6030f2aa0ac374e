//! Tier-1 serve contract: cache correctness under concurrency and across
//! process "restarts".
//!
//! Four rounds against the same request bytes:
//!
//! 1. two concurrent identical point requests join one in-flight suite —
//!    exactly 12 scenario tasks run in total, both responses answer with
//!    byte-identical `done` lines;
//! 2. a cold restart (a fresh [`Server`] on the same store) serves the
//!    same request from the store — zero scenario tasks, 12 journal
//!    replays, and the `done` line is still byte-identical.
//!    `scenario_tasks == 0` is the no-worker-pool proof: the pool
//!    thread-local is only ever touched by the task path that increments
//!    that counter. Then a truncated experiment artifact boots as 1
//!    damaged, and its request recomputes it (`running`) to a
//!    byte-identical `done`;
//! 3. a torn cache entry (`bfs.json` truncated mid-byte, its journal line
//!    dropped: the state a crash between cache write and journal append
//!    leaves) makes the restarted server recompute exactly the damaged
//!    scenario — 1 task, 11 replays — and still converge to the same
//!    response bytes;
//! 4. two servers on two fresh stores in one process are independent: the
//!    second computes the point on its own executor and journals into its
//!    own store, while the first one's store and stats stay put.
//!
//! A second test sends `space` requests: each unique point runs once
//! (`running`), its own `point` request then answers `cached`, a repeat
//! answers `cached` per point with a byte-identical `done`, and equal
//! points count once.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vs_bench::journal::{scenario_cache_rel, Replay, JOURNAL_FILE};
use vs_bench::serve::{ServeOptions, Server};
use vs_bench::shard::SuiteKey;
use vs_bench::space::ConfigPoint;
use vs_bench::RunSettings;
use vs_core::ScenarioId;
use vs_telemetry::json::{self, Json};

/// Small enough for debug-mode CI: one suite, 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 8_000,
        seed: 42,
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vs-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const POINT_REQ: &str = r#"{"id":"r","kind":"point","point":"area=0.2"}"#;
const EXP_REQ: &str = r#"{"id":"e","kind":"experiment","experiment":"table1"}"#;

/// Handles one request, asserting the session stays open, and returns the
/// response lines.
fn handle(server: &Server, line: &str) -> Vec<String> {
    let mut buf = Vec::new();
    assert!(server.handle_line(line, &mut buf).expect("response write"));
    String::from_utf8(buf)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn done_line(lines: &[String]) -> String {
    assert!(
        !lines.iter().any(|l| l.contains("\"name\":\"degraded\"")),
        "unexpected degraded event in {lines:#?}"
    );
    lines
        .iter()
        .find(|l| l.contains("\"name\":\"done\""))
        .unwrap_or_else(|| panic!("no done event in {lines:#?}"))
        .clone()
}

fn has_stage(lines: &[String], stage: &str) -> bool {
    lines.iter().any(|l| l.contains(&format!("\"name\":\"{stage}\"")))
}

fn open(store: PathBuf) -> Server {
    Server::open(&ServeOptions { store, settings: micro() }).expect("open store")
}

/// Leaves `id`'s cache entry of `key`'s suite in `root` as a crash between
/// its cache write and its journal append does: the file truncated
/// mid-byte, its `scenario_done` line gone from the journal.
fn tear_scenario(root: &Path, key: &SuiteKey, id: ScenarioId) {
    let cache = root.join(scenario_cache_rel(key, id));
    let bytes = std::fs::read(&cache).expect("cache entry");
    std::fs::write(&cache, &bytes[..bytes.len() / 2]).unwrap();
    let journal = root.join(JOURNAL_FILE);
    let scenario = format!("\"scenario\":\"{}\"", id.name());
    let kept: String = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter(|l| !(l.contains("\"scenario_done\"") && l.contains(&scenario)))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&journal, kept).unwrap();
}

#[test]
fn concurrent_requests_join_and_cold_restarts_serve_from_store() {
    let store = tmp("store");
    let key = "area=0.2".parse::<ConfigPoint>().unwrap().suite_key(&micro());

    // Round 1 — two concurrent identical requests, one computation.
    let server = Arc::new(open(store.clone()));
    assert_eq!(server.store_report.verified_scenarios, 0);
    assert!(!server.executor().suite_is_warm(&key), "fresh store must be cold");
    let (lines_a, lines_b) = std::thread::scope(|s| {
        let sa = Arc::clone(&server);
        let sb = Arc::clone(&server);
        let a = s.spawn(move || handle(&sa, POINT_REQ));
        let b = s.spawn(move || handle(&sb, POINT_REQ));
        (a.join().expect("request a"), b.join().expect("request b"))
    });
    let stats = server.executor().stats();
    assert_eq!(stats.scenario_tasks, 12, "duplicates must join one suite: {stats:?}");
    assert_eq!(stats.replayed, 0, "{stats:?}");
    let done = done_line(&lines_a);
    assert_eq!(done, done_line(&lines_b), "joined responses must agree byte-for-byte");
    assert!(server.executor().suite_is_warm(&key), "completed suite must report warm");
    let exp_done = done_line(&handle(&server, EXP_REQ));
    assert!(exp_done.contains("\"checksum\""), "{exp_done}");

    // Round 2 — cold restart: replay from the store, no worker pool.
    let server2 = open(store.clone());
    assert_eq!(server2.store_report.verified_scenarios, 12, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.verified_experiments, 1, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.damaged, 0, "{:?}", server2.store_report);
    assert!(server2.executor().suite_is_warm(&key), "a full replay must report warm");
    let lines = handle(&server2, POINT_REQ);
    let stats = server2.executor().stats();
    assert_eq!(stats.scenario_tasks, 0, "store hit must run zero co-simulation: {stats:?}");
    assert_eq!(stats.replayed, 12, "{stats:?}");
    assert!(has_stage(&lines, "cached"), "store hit must announce cached: {lines:#?}");
    assert_eq!(done_line(&lines), done, "replayed response must be byte-identical");
    let exp_lines = handle(&server2, EXP_REQ);
    assert!(has_stage(&exp_lines, "cached"), "{exp_lines:#?}");
    assert_eq!(done_line(&exp_lines), exp_done, "experiment hit must be byte-identical");

    // A truncated experiment artifact: the boot counts it damaged, and the
    // request recomputes it to the same bytes.
    let experiments: Vec<PathBuf> = std::fs::read_dir(server2.root().join("experiments"))
        .expect("experiment store")
        .map(|e| e.expect("entry").path())
        .collect();
    let [artifact] = experiments.as_slice() else {
        panic!("one experiment artifact expected: {experiments:?}");
    };
    let bytes = std::fs::read(artifact).unwrap();
    std::fs::write(artifact, &bytes[..bytes.len() / 2]).unwrap();
    let torn = open(store.clone());
    assert_eq!(torn.store_report.verified_experiments, 0, "{:?}", torn.store_report);
    assert_eq!(torn.store_report.verified_scenarios, 12, "{:?}", torn.store_report);
    assert_eq!(torn.store_report.damaged, 1, "{:?}", torn.store_report);
    let exp_lines = handle(&torn, EXP_REQ);
    assert!(has_stage(&exp_lines, "running"), "{exp_lines:#?}");
    assert_eq!(done_line(&exp_lines), exp_done, "a recomputed artifact must be byte-identical");
    let healed = open(store);
    assert_eq!(healed.store_report.verified_experiments, 1, "{:?}", healed.store_report);
    assert_eq!(healed.store_report.damaged, 0, "{:?}", healed.store_report);

    // Round 3 — torn cache entry: recompute exactly the damaged scenario.
    let store = tmp("torn");
    let server3 = open(store.clone());
    let done3 = done_line(&handle(&server3, POINT_REQ));
    assert_eq!(done3, done, "same point, same settings, same response");
    tear_scenario(server3.root(), &key, ScenarioId::Bfs);

    let server4 = open(store);
    // The torn write lands before the journal append, so the entry is an
    // orphaned file, not a journaled damage record.
    assert_eq!(server4.store_report.verified_scenarios, 11, "{:?}", server4.store_report);
    assert!(!server4.executor().suite_is_warm(&key), "a partial replay must not report warm");
    let lines = handle(&server4, POINT_REQ);
    let stats = server4.executor().stats();
    assert_eq!(stats.scenario_tasks, 1, "exactly the torn scenario recomputes: {stats:?}");
    assert_eq!(stats.replayed, 11, "{stats:?}");
    assert!(has_stage(&lines, "running"), "{lines:#?}");
    assert_eq!(done_line(&lines), done, "healed response must be byte-identical");

    // Round 4 — independent executors: two servers on two fresh stores in
    // one process. B must compute the point A already holds, on its own
    // executor, into its own store.
    let server_a = open(tmp("a"));
    let server_b = open(tmp("b"));
    assert_eq!(done_line(&handle(&server_a, POINT_REQ)), done);
    let stats_a = server_a.executor().stats();
    assert_eq!(stats_a.scenario_tasks, 12, "{stats_a:?}");
    let lines = handle(&server_b, POINT_REQ);
    assert!(has_stage(&lines, "running"), "B must not answer from A's memo: {lines:#?}");
    assert_eq!(done_line(&lines), done);
    let stats_b = server_b.executor().stats();
    assert_eq!(stats_b.scenario_tasks, 12, "B runs the suite itself: {stats_b:?}");
    assert_eq!(stats_b.replayed, 0, "{stats_b:?}");
    assert_eq!(server_a.executor().stats(), stats_a, "B's request must not move A's stats");
    let journaled =
        |server: &Server| Replay::load(server.root()).expect("journal").scenarios.verified;
    assert_eq!(journaled(&server_b), 12, "B journals into its own store");
    assert_eq!(journaled(&server_a), 12, "A's store holds exactly its own entries");

    // Hostile requests answer degraded instead of killing the session. The
    // malformed ones are rejected before any work starts, so they never
    // reach `running`; a diff names stores that only its run reads, so it
    // announces `running` before it degrades.
    for (bad, runs) in [
        ("not json", false),
        (r#"{"id":"x","kind":"warp_drive"}"#, false),
        (r#"{"id":"x","kind":"point","point":"area=inf"}"#, false),
        (r#"{"id":"x","kind":"point","point":"stack=2x4"}"#, false),
        (
            r#"{"id":"x","kind":"diff_baseline","baseline":"/nonexistent","candidate":"/nonexistent"}"#,
            true,
        ),
        (r#"{"id":"x","kind":"experiment","experiment":"fig99"}"#, false),
    ] {
        let mut buf = Vec::new();
        assert!(server4.handle_line(bad, &mut buf).unwrap(), "{bad}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"degraded\""), "{bad} -> {text}");
        assert_eq!(text.contains("\"name\":\"running\""), runs, "{bad} -> {text}");
    }
    // Shutdown closes the session.
    let mut buf = Vec::new();
    assert!(!server4.handle_line(r#"{"id":"z","kind":"shutdown"}"#, &mut buf).unwrap());
}

/// A response line's stage (`accepted`, `running`, `done`, ...).
fn stage(line: &str) -> String {
    let v = json::parse(line).expect("response line is JSON");
    v.get("name")
        .and_then(Json::as_str)
        .expect("a stage")
        .to_string()
}

/// The value of a response line's arg `key`.
fn arg(line: &str, key: &str) -> String {
    let v = json::parse(line).expect("response line is JSON");
    v.get("args")
        .and_then(|args| args.get(key))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .to_string()
}

fn stages(lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| stage(l)).collect()
}

#[test]
fn space_requests_run_each_unique_point_once_and_replay_byte_identically() {
    let server = open(tmp("space"));
    let space = r#"{"id":"s","kind":"space","space":"area=0.2|0.4"}"#;
    let lines = handle(&server, space);
    assert_eq!(
        stages(&lines),
        ["accepted", "running", "running", "done"],
        "{lines:#?}"
    );
    let done = lines.last().expect("a done line").clone();
    assert_eq!(arg(&done, "points"), "2");
    assert_eq!(arg(&done, "unique"), "2");

    // Each point's own request answers from the suite the space ran, and
    // the space's min_v is the smaller of the two points'.
    let mut min_v = f64::INFINITY;
    for area in ["0.2", "0.4"] {
        let req = format!(r#"{{"id":"p","kind":"point","point":"area={area}"}}"#);
        let point = handle(&server, &req);
        assert_eq!(stages(&point), ["accepted", "cached", "done"], "{point:#?}");
        let v: f64 = arg(&done_line(&point), "min_v")
            .parse()
            .expect("min_v is a number");
        min_v = min_v.min(v);
    }
    assert_eq!(arg(&done, "min_v"), min_v.to_string());

    // A repeat answers cached per point, with a byte-identical done.
    let again = handle(&server, space);
    assert_eq!(
        stages(&again),
        ["accepted", "cached", "cached", "done"],
        "{again:#?}"
    );
    assert_eq!(
        again.last(),
        Some(&done),
        "a replayed space must be byte-identical"
    );

    // Two equal points are one unique point (the paper point, cached).
    let dup = handle(
        &server,
        r#"{"id":"d","kind":"space","space":"latency=60|60"}"#,
    );
    assert_eq!(stages(&dup), ["accepted", "cached", "done"], "{dup:#?}");
    let dup_done = done_line(&dup);
    assert_eq!(arg(&dup_done, "points"), "2");
    assert_eq!(arg(&dup_done, "unique"), "1");
}

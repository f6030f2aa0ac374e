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
//!    that counter;
//! 3. a torn cache entry (chaos hook tears `bfs.json` mid-byte and skips
//!    its journal append) makes the restarted server recompute exactly
//!    the damaged scenario — 1 task, 11 replays — and still converge to
//!    the same response bytes;
//! 4. two servers on two fresh stores in one process are independent: the
//!    second computes the point on its own executor and journals into its
//!    own store, while the first one's store and stats stay put.
//!
//! One `#[test]` on purpose: the chaos plan is process-wide.

use std::path::PathBuf;
use std::sync::Arc;

use vs_bench::chaos::{clear_chaos_plan, install_chaos_plan, ChaosPlan};
use vs_bench::journal::load_resume;
use vs_bench::serve::{ServeOptions, Server};
use vs_bench::space::ConfigPoint;
use vs_bench::RunSettings;

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

#[test]
fn concurrent_requests_join_and_cold_restarts_serve_from_store() {
    let store = tmp("store");
    let key = "area=0.2".parse::<ConfigPoint>().unwrap().suite_key(&micro());

    // Round 1 — two concurrent identical requests, one computation.
    clear_chaos_plan();
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
    let server2 = open(store);
    assert_eq!(server2.store_report.verified_scenarios, 12, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.verified_experiments, 1, "{:?}", server2.store_report);
    assert_eq!(server2.store_report.damaged, 0, "{:?}", server2.store_report);
    assert!(server2.executor().suite_is_warm(&key), "full preload must report warm");
    let lines = handle(&server2, POINT_REQ);
    let stats = server2.executor().stats();
    assert_eq!(stats.scenario_tasks, 0, "store hit must run zero co-simulation: {stats:?}");
    assert_eq!(stats.replayed, 12, "{stats:?}");
    assert!(has_stage(&lines, "cached"), "store hit must announce cached: {lines:#?}");
    assert_eq!(done_line(&lines), done, "replayed response must be byte-identical");
    let exp_lines = handle(&server2, EXP_REQ);
    assert!(has_stage(&exp_lines, "cached"), "{exp_lines:#?}");
    assert_eq!(done_line(&exp_lines), exp_done, "experiment hit must be byte-identical");

    // Round 3 — torn cache entry: recompute exactly the damaged scenario.
    let store = tmp("torn");
    let server3 = open(store.clone());
    install_chaos_plan(ChaosPlan {
        seed: 1,
        tasks: vec![],
        torn_writes: vec!["bfs.json".to_string()],
    });
    let done3 = done_line(&handle(&server3, POINT_REQ));
    clear_chaos_plan();
    assert_eq!(done3, done, "same point, same settings, same response");

    let server4 = open(store);
    // The torn write lands before the journal append, so the entry is an
    // orphaned file, not a journaled damage record.
    assert_eq!(server4.store_report.verified_scenarios, 11, "{:?}", server4.store_report);
    assert!(!server4.executor().suite_is_warm(&key), "a partial preload must not report warm");
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
    let journaled = |server: &Server| load_resume(server.root()).expect("journal").verified_scenarios;
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

//! `serve_mixed`: the artifact server driven from this process as a
//! closed-loop client. A cold phase on one connection computes 40 seeded
//! design points through the executor and writes the store; after
//! restarts that replay the store, a warm phase on min(2, nproc)
//! connections repeats an 80/20 mix of those points and six experiments,
//! which the server answers from memory and from checksum-verified files.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vs_bench::space::{AxisSpace, ConfigPoint};
use vs_telemetry::json::{self, Json};

use crate::host::{probed, restarts};
use crate::metrics::Outcome;
use crate::procs::{pin_command, process_cpu_s, Guarded, Programs, Usage};
use crate::stats::{percentile_line, quantile, Digest, SplitMix64};
use crate::{count_before, dir_bytes, read_jsonl, Plan};

/// Constant experiments the cold phase requests once each: the warm
/// phase serves them from store files rather than memory.
pub const EXPERIMENTS: [&str; 6] = [
    "table1",
    "table2",
    "fig3",
    "fig5",
    "fig9",
    "ablation_detector",
];

/// Share of warm requests that name a point (the rest name experiments).
const WARM_POINT_SHARE: f64 = 0.8;

/// Shortest warm phase, seconds: enough for 100+ requests even when each
/// costs a 40 ms TCP stall.
const MIN_WARM_S: f64 = 4.0;

/// Requests per transport in the transport probe (p90 keeps ten beyond).
const TRANSPORT_REQUESTS: usize = 100;

/// Longest wait for one reply before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// `n` distinct points of the full dse grid, drawn with `seed`.
pub fn cold_points(seed: u64, n: usize) -> Vec<ConfigPoint> {
    let mut grid = AxisSpace::full_grid().points();
    let mut rng = SplitMix64::new(seed);
    for i in 0..n.min(grid.len()) {
        let j = i + rng.below(grid.len() - i);
        grid.swap(i, j);
    }
    grid.truncate(n);
    grid
}

fn request_line(id: &str, kind: &str, key: &str, value: &str) -> String {
    Json::obj([
        ("id", Json::from(id)),
        ("kind", Json::from(kind)),
        (key, Json::from(value)),
    ])
    .to_string_compact()
}

/// The seeded request table: the cold points first, then the experiments.
/// Warm requests reuse the cold request ids, so a warm `done` line must be
/// byte-identical to the cold one.
#[derive(Debug, Clone)]
pub struct Requests {
    /// One request line per table entry.
    pub lines: Vec<String>,
    /// How many leading entries are points.
    pub points: usize,
}

impl Requests {
    /// The table for `seed` with `points` cold points.
    pub fn new(seed: u64, points: usize) -> Requests {
        let mut lines: Vec<String> = cold_points(seed, points)
            .iter()
            .enumerate()
            .map(|(i, p)| request_line(&format!("p{i}"), "point", "point", &p.to_string()))
            .collect();
        lines.extend(
            EXPERIMENTS
                .iter()
                .map(|e| request_line(&format!("x-{e}"), "experiment", "experiment", e)),
        );
        Requests { lines, points }
    }

    /// The next warm request: a point with probability 0.8, else an
    /// experiment, each uniform within its kind.
    pub fn warm_index(&self, rng: &mut SplitMix64) -> usize {
        if rng.unit() < WARM_POINT_SHARE {
            rng.below(self.points)
        } else {
            self.points + rng.below(self.lines.len() - self.points)
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Reply {
    latency_s: f64,
    /// `cached` or `running`, when the server said.
    provenance: Option<String>,
    /// The `done` line, verbatim; `None` when the request ended `degraded`.
    done: Option<String>,
}

/// A line-protocol session over any transport.
struct Session<R, W> {
    reader: R,
    writer: W,
}

impl<R: BufRead, W: Write> Session<R, W> {
    /// Sends one request and reads its events up to `done` or `degraded`;
    /// the latency runs from the send to the final line.
    fn call(&mut self, line: &str) -> Result<Reply, String> {
        let t0 = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut provenance = None;
        loop {
            let mut buf = String::new();
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Err("server closed the session mid-request".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("cannot read reply: {e}")),
            }
            let event =
                json::parse(buf.trim_end()).map_err(|e| format!("bad reply {buf:?}: {e}"))?;
            match event.get("name").and_then(Json::as_str) {
                Some(stage @ ("cached" | "running")) => provenance = Some(stage.to_string()),
                Some(end @ ("done" | "degraded")) => {
                    return Ok(Reply {
                        latency_s: t0.elapsed().as_secs_f64(),
                        provenance,
                        done: (end == "done").then(|| buf.trim_end().to_string()),
                    })
                }
                _ => {}
            }
        }
    }
}

type TcpSession = Session<BufReader<TcpStream>, TcpStream>;

/// A running `serve --addr` process.
struct Server {
    child: Guarded,
    addr: String,
    /// Spawn to the `listening` line, seconds.
    boot_s: f64,
    stderr: JoinHandle<Vec<String>>,
}

impl Server {
    /// Starts the server on `store`, on the plan's first CPU, and waits
    /// for its `listening` line.
    fn start(progs: &Programs, plan: &Plan, store: &Path, traced: bool) -> Result<Server, String> {
        let mut cmd = Command::new(&progs.serve);
        pin_command(&mut cmd, &[plan.cpu()]);
        cmd.current_dir(&progs.root)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--profile",
                plan.profile,
                "--progress",
                "off",
            ])
            .args(["--seed", &plan.seed.to_string(), "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if traced {
            cmd.arg("--trace");
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let child = Guarded(Some(child));
        let stderr = thread::spawn(move || {
            BufReader::new(stderr)
                .lines()
                .map_while(Result::ok)
                .collect()
        });
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read serve stdout: {e}"))?;
        let boot_s = t0.elapsed().as_secs_f64();
        let addr = line
            .strip_prefix("listening ")
            .map(|a| a.trim().to_string())
            .ok_or_else(|| format!("serve did not start listening: {line:?}"))?;
        Ok(Server {
            child,
            addr,
            boot_s,
            stderr,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<TcpSession, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Session {
            reader,
            writer: stream,
        })
    }

    /// Sends `shutdown`, waits for a clean exit, and returns its stderr
    /// (the boot banner) and resource use.
    fn stop(self) -> Result<(Vec<String>, Usage), String> {
        self.connect()?
            .call(&request_line("bye", "shutdown", "reason", "benchmark"))?;
        let usage = self.child.wait()?;
        let lines = self
            .stderr
            .join()
            .map_err(|_| "stderr reader panicked".to_string())?;
        if !usage.status.success() {
            return Err(format!("serve exited with {}: {lines:?}", usage.status));
        }
        Ok((lines, usage))
    }
}

/// The boot banner's (verified scenarios, verified experiments, damaged).
fn banner(lines: &[String]) -> (Option<u64>, Option<u64>, Option<u64>) {
    let line = lines
        .iter()
        .find(|l| l.starts_with("[serve] store "))
        .map_or("", String::as_str);
    (
        count_before(line, "scenario"),
        count_before(line, "experiment"),
        count_before(line, "damaged"),
    )
}

/// The fingerprinted directory the server keeps its journal in.
fn store_root(store: &Path) -> Result<PathBuf, String> {
    let mut dirs = std::fs::read_dir(store)
        .map_err(|e| format!("cannot list {}: {e}", store.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir());
    dirs.next()
        .ok_or_else(|| format!("{} holds no store", store.display()))
}

/// The cold phase on a fresh store: every table request once, in order,
/// on one connection.
#[derive(Debug)]
struct Cold {
    store: PathBuf,
    replies: Vec<Reply>,
    wall_s: f64,
    /// Server CPU seconds over the phase.
    cpu_s: f64,
    /// The server's peak resident set, KiB.
    maxrss_kib: u64,
    /// Scenario and experiment records in the store journal.
    scenarios: u64,
    experiments: u64,
    journal_records: u64,
    /// Digest of the `done` lines in request order.
    digest: String,
}

fn run_cold(
    progs: &Programs,
    plan: &Plan,
    reqs: &Requests,
    name: &str,
    traced: bool,
) -> Result<Cold, String> {
    let store = progs.fresh_dir(name)?;
    let server = Server::start(progs, plan, &store, traced)?;
    let mut session = server.connect()?;
    let cpu0 = process_cpu_s(server.pid());
    let t0 = Instant::now();
    let replies = reqs
        .lines
        .iter()
        .map(|l| session.call(l))
        .collect::<Result<Vec<_>, _>>()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s(server.pid()) - cpu0;
    drop(session);
    let maxrss_kib = server.stop()?.1.maxrss_kib;

    let journal = read_jsonl(&store_root(&store)?.join("journal.jsonl"))?;
    let count = |kind: &str| {
        journal
            .iter()
            .filter(|r| r.get("type").and_then(Json::as_str) == Some(kind))
            .count() as u64
    };
    let mut digest = Digest::default();
    for r in &replies {
        digest.update(r.done.as_deref().unwrap_or("degraded").as_bytes());
        digest.update(b"\n");
    }
    Ok(Cold {
        scenarios: count("scenario_done"),
        experiments: count("experiment_done"),
        journal_records: journal.len() as u64,
        digest: digest.hex(),
        store,
        replies,
        wall_s,
        cpu_s,
        maxrss_kib,
    })
}

/// Counts the cold requests and checks they all computed to `done`.
fn account_cold(out: &mut Outcome, reqs: &Requests, cold: &Cold) {
    let degraded = cold.replies.iter().filter(|r| r.done.is_none()).count() as u64;
    out.attempted += cold.replies.len() as u64;
    out.failed += degraded;
    let computed = cold.replies[..reqs.points]
        .iter()
        .filter(|r| r.provenance.as_deref() == Some("running"))
        .count();
    out.check(
        "cold requests all answer done, points computed",
        degraded == 0 && computed == reqs.points,
        format!(
            "{degraded} degraded, {computed} of {} points computed",
            reqs.points
        ),
    );
}

/// Checks a boot banner against the store the cold phase wrote.
fn boot_ok(lines: &[String], cold: &Cold) -> bool {
    banner(lines) == (Some(cold.scenarios), Some(cold.experiments), Some(0))
}

/// The report line for reply latencies.
fn latency_line(label: &str, replies: &[&Reply]) -> String {
    percentile_line(
        label,
        &replies
            .iter()
            .map(|r| r.latency_s * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// The warm phase: `conns` closed-loop clients until `seconds` have
/// passed, each drawing its own seeded request stream.
fn run_warm(
    server: &Server,
    reqs: &Requests,
    plan: &Plan,
    seconds: f64,
) -> Result<(Vec<(usize, Reply)>, f64), String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client = thread::scope(|scope| {
        let clients: Vec<_> = (0..plan.workers() as u64)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<(usize, Reply)>, String> {
                    let mut session = server.connect()?;
                    let mut rng = SplitMix64::new(plan.seed ^ ((c + 1) << 32));
                    let mut got = Vec::new();
                    while Instant::now() < deadline {
                        let i = reqs.warm_index(&mut rng);
                        got.push((i, session.call(&reqs.lines[i])?));
                    }
                    Ok(got)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().map_err(|_| "warm client panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((
        per_client.into_iter().flatten().collect(),
        t0.elapsed().as_secs_f64(),
    ))
}

/// The untraced workload: cold phase, `plan.setups` restarts on the
/// store (the last one serves the warm phase), warm phase. Every server
/// runs on one CPU the host-speed probe watches.
pub fn workload(progs: &Programs, plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve_mixed");
    let started = Instant::now();
    let reqs = Requests::new(plan.seed, plan.cold_points());
    let ((cold, boots, warm, warm_wall, lines, warm_usage), slow) = probed(&[plan.cpu()], || {
        let cold = run_cold(progs, plan, &reqs, "serve-store", false)?;
        let mut kept = None;
        let boots = restarts(plan.setups, &[plan.cpu()], |i| {
            let server = Server::start(progs, plan, &cold.store, false)?;
            let boot_s = server.boot_s;
            if i + 1 == plan.setups {
                kept = Some(server);
                return Ok((boot_s, None));
            }
            let lines = server.stop()?.0;
            Ok((
                boot_s,
                (!boot_ok(&lines, &cold))
                    .then(|| format!("boot {i} reported {:?}", banner(&lines))),
            ))
        })?;
        let server = match kept {
            Some(server) => server,
            None => Server::start(progs, plan, &cold.store, false)?,
        };
        let min_warm = if plan.selftest { 1.0 } else { MIN_WARM_S };
        let budget = (plan.seconds - started.elapsed().as_secs_f64()).max(min_warm);
        let (warm, warm_wall) = run_warm(&server, &reqs, plan, budget)?;
        let (lines, warm_usage) = server.stop()?;
        Ok((cold, boots, warm, warm_wall, lines, warm_usage))
    })?;
    account_cold(&mut out, &reqs, &cold);
    let problem = boots.problem.clone().or_else(|| {
        (!boot_ok(&lines, &cold)).then(|| format!("warm server reported {:?}", banner(&lines)))
    });
    out.check(
        "every boot replays the whole store",
        problem.is_none(),
        problem.unwrap_or(format!(
            "{} boots, each {} scenarios + {} experiments",
            boots.count, cold.scenarios, cold.experiments
        )),
    );

    let mismatched = |i: usize, r: &Reply| r.done.is_none() || r.done != cold.replies[i].done;
    let recomputed = |r: &Reply| r.provenance.as_deref() != Some("cached");
    let bad = warm
        .iter()
        .filter(|(i, r)| mismatched(*i, r) || recomputed(r))
        .count() as u64;
    out.attempted += warm.len() as u64;
    out.failed += bad;
    out.check(
        "warm done lines byte-identical to cold, all cached",
        bad == 0,
        format!(
            "{} mismatched, {} not cached, of {} warm requests",
            warm.iter().filter(|(i, r)| mismatched(*i, r)).count(),
            warm.iter().filter(|(_, r)| recomputed(r)).count(),
            warm.len()
        ),
    );

    // The warm path waits on TCP timers, not on the CPU, so its rate is
    // reported as measured.
    out.metric("setup_s", boots.scaled_s, boots.count);
    out.metric("wall_s", slow.scale(cold.wall_s), cold.replies.len());
    out.metric("cpu_s", slow.scale(cold.cpu_s), 1);
    out.metric(
        "peak_rss_mb",
        cold.maxrss_kib.max(warm_usage.maxrss_kib) as f64 / 1024.0,
        2,
    );
    out.metric("work_per_s", warm.len() as f64 / warm_wall, warm.len());
    out.details.push(slow.detail(&[
        ("setup_s", boots.raw_s),
        ("wall_s", cold.wall_s),
        ("cpu_s", cold.cpu_s),
    ]));

    let cold_points: Vec<&Reply> = cold.replies[..reqs.points].iter().collect();
    let kind = |point: bool| {
        warm.iter()
            .filter(|(i, _)| (*i < reqs.points) == point)
            .map(|(_, r)| r)
            .collect::<Vec<_>>()
    };
    let all_warm: Vec<&Reply> = warm.iter().map(|(_, r)| r).collect();
    out.details.push(latency_line("cold point", &cold_points));
    out.details.push(latency_line(
        &format!("warm request over {} connection(s)", plan.workers()),
        &all_warm,
    ));
    out.details
        .push(latency_line("warm point (memory)", &kind(true)));
    out.details
        .push(latency_line("warm experiment (store file)", &kind(false)));
    out.digest = cold.digest.clone();
    Ok(out)
}

/// The executor, store and tracing layers: the cold phase untraced and
/// with `serve --trace`.
pub fn layers(out: &mut Outcome, progs: &Programs, plan: &Plan) -> Result<(), String> {
    let reqs = Requests::new(plan.seed, plan.cold_points());
    let (plain, plain_slow) = probed(&[plan.cpu()], || {
        run_cold(progs, plan, &reqs, "serve-untraced", false)
    })?;
    let (traced, traced_slow) = probed(&[plan.cpu()], || {
        run_cold(progs, plan, &reqs, "serve-traced", true)
    })?;
    account_cold(out, &reqs, &plain);
    account_cold(out, &reqs, &traced);
    out.check(
        "traced and untraced servers answer identically",
        plain.digest == traced.digest,
        format!("{} vs {}", plain.digest, traced.digest),
    );
    out.digest = plain.digest.clone();
    out.metric("exec.tasks", plain.scenarios as f64, 1);
    out.metric(
        "exec.cpu_ms_per_task",
        plain.cpu_s * 1e3 / plain.scenarios.max(1) as f64,
        plain.scenarios as usize,
    );
    out.metric("exec.parallel_efficiency", plain.cpu_s / plain.wall_s, 1);
    out.metric("journal.records", plain.journal_records as f64, 1);
    out.metric("journal.store_bytes", dir_bytes(&plain.store) as f64, 1);
    out.metric(
        "telemetry.trace_overhead_frac",
        traced_slow.scale(traced.wall_s) / plain_slow.scale(plain.wall_s) - 1.0,
        2,
    );
    Ok(())
}

/// The transport layer alone: one warm point request repeated over TCP,
/// then over `serve --stdio` on the same store (tiny profile, so the one
/// cold computation is short).
pub fn transport(out: &mut Outcome, progs: &Programs, plan: &Plan) -> Result<(), String> {
    let tiny = Plan {
        profile: "tiny",
        ..plan.clone()
    };
    let store = progs.fresh_dir("serve-transport")?;
    let line = request_line("t", "point", "point", &ConfigPoint::paper().to_string());

    let server = Server::start(progs, &tiny, &store, false)?;
    let mut session = server.connect()?;
    let cold = session.call(&line)?;
    let tcp = (0..TRANSPORT_REQUESTS)
        .map(|_| session.call(&line))
        .collect::<Result<Vec<_>, _>>()?;
    drop(session);
    server.stop()?;

    let mut cmd = Command::new(&progs.serve);
    pin_command(&mut cmd, &[plan.cpu()]);
    let mut child = cmd
        .current_dir(&progs.root)
        .args([
            "--stdio",
            "--profile",
            "tiny",
            "--progress",
            "off",
            "--seed",
            &plan.seed.to_string(),
            "--store",
        ])
        .arg(&store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn serve --stdio: {e}"))?;
    let writer = child.stdin.take().expect("stdin was piped");
    let reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let child = Guarded(Some(child));
    let mut session = Session { reader, writer };
    let stdio = (0..TRANSPORT_REQUESTS)
        .map(|_| session.call(&line))
        .collect::<Result<Vec<_>, _>>()?;
    session.call(&request_line("bye", "shutdown", "reason", "benchmark"))?;
    drop(session);
    let status = child.wait()?.status;

    let same = tcp.iter().chain(&stdio).all(|r| {
        r.done.is_some() && r.done == cold.done && r.provenance.as_deref() == Some("cached")
    });
    out.attempted += (1 + 2 * TRANSPORT_REQUESTS) as u64;
    out.check(
        "transport probe: warm TCP and stdio replies identical to the cold one",
        same && cold.done.is_some() && status.success(),
        format!("stdio session exit {status}"),
    );
    let ms = |rs: &[Reply], q: f64| {
        quantile(&rs.iter().map(|r| r.latency_s * 1e3).collect::<Vec<_>>(), q).unwrap_or(f64::NAN)
    };
    out.metric("serve.tcp_warm_p50_ms", ms(&tcp, 0.5), tcp.len());
    out.metric("serve.tcp_warm_p90_ms", ms(&tcp, 0.9), tcp.len());
    out.metric("serve.stdio_warm_p50_ms", ms(&stdio, 0.5), stdio.len());
    out.metric("serve.stdio_warm_p90_ms", ms(&stdio, 0.9), stdio.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_points_are_seeded_distinct_and_in_the_grid() {
        let grid = AxisSpace::full_grid().points();
        let a = cold_points(42, 40);
        assert_eq!(a, cold_points(42, 40), "same seed, same points");
        assert_ne!(a, cold_points(7, 40), "another seed, other points");
        assert_eq!(a.len(), 40);
        for (i, p) in a.iter().enumerate() {
            assert!(a[..i].iter().all(|q| q != p), "{p} drawn twice");
            assert_eq!(
                p.to_string().parse::<ConfigPoint>().as_ref(),
                Ok(p),
                "{p} round-trips the grammar"
            );
            assert!(grid.contains(p), "{p} lies in full_grid()");
        }
    }

    #[test]
    fn request_streams_are_seeded() {
        let stream = |seed: u64| {
            let reqs = Requests::new(seed, 40);
            let mut rng = SplitMix64::new(seed);
            let picks: Vec<usize> = (0..200).map(|_| reqs.warm_index(&mut rng)).collect();
            (reqs.lines, picks)
        };
        let (lines, picks) = stream(42);
        assert_eq!((lines.clone(), picks.clone()), stream(42));
        assert_ne!(lines, stream(7).0);
        assert_eq!(lines.len(), 40 + EXPERIMENTS.len());
        assert!(picks.iter().all(|&i| i < lines.len()));
        let points = picks.iter().filter(|&&i| i < 40).count();
        assert!(
            (140..=180).contains(&points),
            "{points} of 200 warm requests are points"
        );
        assert!(lines[0].starts_with("{\"id\":\"p0\",\"kind\":\"point\",\"point\":\"stack="));
    }

    #[test]
    fn banner_counts_parse() {
        let lines = vec![
            "[serve] store s/5340a9067d606cb4 (fingerprint 5340a9067d606cb4): 144 scenario(s) + 6 experiment(s) verified, 0 damaged, 0 journal line(s) skipped".to_string(),
        ];
        assert_eq!(banner(&lines), (Some(144), Some(6), Some(0)));
        assert_eq!(banner(&[]), (None, None, None));
    }
}

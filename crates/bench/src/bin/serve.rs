//! The persistent artifact server: line-delimited JSON requests in,
//! request-lifecycle events out, over a content-addressed store.
//!
//! ```text
//! serve (--stdio | --addr HOST:PORT) [--store DIR]
//!       [--profile env|golden|tiny] [--seed N] [--trace]
//!       [--progress plain|off]
//! ```
//!
//! `--stdio` serves exactly one session over stdin/stdout (tests, CI
//! smoke, `mkfifo` pipelines); `--addr` binds a TCP listener and serves
//! each connection on its own thread, at most `MAX_CONNECTIONS` (64) at
//! once (one more is answered `server busy` and closed), all sharing one
//! store and the server's executor — concurrent identical requests join a
//! single computation. Both transports buffer a reply and flush it once
//! per request (and after `running`).
//! Either way the process runs until a `shutdown` request (or stdin EOF).
//!
//! The store (default `target/serve-store`) survives restarts: on boot
//! the server replays `<store>/<code-fingerprint>/journal.jsonl`,
//! verifies every entry's bytes, and serves verified work as `cached`
//! responses without constructing a worker pool. See
//! `vs_bench::serve` for the protocol and cache-key contract.
//!
//! `--trace` records the server executor's spans and, when the stdio
//! session or the TCP listener ends, writes them with its metrics as
//! `<store>/<code-fingerprint>/trace.json`.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | clean shutdown |
//! | 2 | environment/usage error |
//! | 3 | internal error (panic; structured JSONL on stderr) |

use std::io::{self, BufWriter, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use vs_bench::cli::{ArgSpec, CommandSpec, PROFILE_FLAG, SEED_FLAG};
use vs_bench::serve::{serve_lines, serve_tcp, ServeOptions, Server};

const SPEC: CommandSpec = CommandSpec {
    prog: "serve",
    about: "Persistent artifact server: JSONL requests over stdio or TCP, content-addressed cache",
    common: &["--trace", "--progress"],
    extras: &[
        ArgSpec { name: "--stdio", value: None, help: "serve one session over stdin/stdout" },
        ArgSpec { name: "--addr", value: Some("HOST:PORT"), help: "bind a TCP listener (e.g. 127.0.0.1:7777)" },
        ArgSpec { name: "--store", value: Some("DIR"), help: "store root (default target/serve-store)" },
        PROFILE_FLAG,
        SEED_FLAG,
    ],
    positionals: &[],
};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    vs_bench::install_panic_hook("serve");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = SPEC.parse_or_exit(&args);
    parsed.common.apply_observability();

    let settings = parsed.run_settings_or_exit();
    let store = parsed
        .extra("--store")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/serve-store"));
    let server = Server::open(&ServeOptions { store, settings })
        .unwrap_or_else(|e| fail(&format!("cannot open store: {e}")));
    let server = Arc::new(server);
    server.executor().tracer().set_enabled(parsed.common.trace);
    let r = &server.store_report;
    eprintln!(
        "[serve] store {} (fingerprint {}): {} scenario(s) + {} experiment(s) verified, \
         {} damaged, {} journal line(s) skipped",
        server.root().display(),
        r.fingerprint,
        r.verified_scenarios,
        r.verified_experiments,
        r.damaged,
        r.skipped_lines,
    );

    match (parsed.has("--stdio"), parsed.extra("--addr")) {
        (true, Some(_)) => fail("--stdio and --addr are mutually exclusive"),
        (false, None) => fail("pick a transport: --stdio or --addr HOST:PORT"),
        (true, None) => {
            let output = BufWriter::new(io::stdout().lock());
            if let Err(e) = serve_lines(&server, io::stdin().lock(), output) {
                fail(&format!("stdio session failed: {e}"));
            }
        }
        (false, Some(addr)) => {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
            // Print the bound address (port 0 resolves here) so scripts can
            // connect without racing the log.
            let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.to_string());
            println!("listening {local}");
            let _ = io::stdout().flush();
            serve_tcp(&server, listener).unwrap_or_else(|e| fail(&format!("listener failed: {e}")));
        }
    }
    if parsed.common.trace {
        match server.executor().write_trace(server.root()) {
            Ok(path) => eprintln!("[serve] trace -> {}", path.display()),
            Err(e) => eprintln!(
                "[serve] cannot write trace into {}: {e}",
                server.root().display()
            ),
        }
    }
    ExitCode::SUCCESS
}

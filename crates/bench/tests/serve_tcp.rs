//! The TCP transport of `serve`, driven in-process on `127.0.0.1:0`:
//!
//! - warm replies leave at wire speed: after one cold point and one cold
//!   experiment, 60 warm requests on the same connection all answer
//!   `cached` with `done` lines byte-identical to the cold ones, and their
//!   median latency stays under 20 ms, well below the 40 ms delayed-ACK
//!   wait a reply split over several Nagle-delayed writes pays;
//! - the connection cap: 64 live connections are served, one more gets a
//!   single `degraded` "server busy" line and is closed, a slot frees
//!   when its connection closes, and `shutdown` still ends the accept loop
//!   with every slot taken;
//! - hostile lines: an over-long line and a non-UTF-8 line each answer
//!   `degraded`, and the session keeps serving, over TCP and over an
//!   in-memory stdio session;
//! - `shutdown` ends `serve_tcp` and releases the listener.
//!
//! Every read has a timeout, so a server that never answers fails a test
//! instead of hanging it. The two caps are restated as literals because
//! they are part of the wire contract: changing either should fail here.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vs_bench::serve::{serve_lines, serve_tcp, ServeOptions, Server};
use vs_bench::RunSettings;

/// Live connections the server serves at once.
const MAX_CONNECTIONS: usize = 64;
/// Longest request line, in bytes without its `\n`.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Longest wait for any reply line (or for the server to stop).
const TIMEOUT: Duration = Duration::from_secs(10);

const POINT_REQ: &str = r#"{"id":"r","kind":"point","point":"area=0.2"}"#;
const EXP_REQ: &str = r#"{"id":"e","kind":"experiment","experiment":"table1"}"#;
/// A request the server answers at once, `accepted` then `degraded`.
const PROBE: &str = r#"{"id":"k","kind":"warp_drive"}"#;

/// The settings of `tests/serve.rs`: one suite, 12 scenarios.
fn micro() -> RunSettings {
    RunSettings {
        workload_scale: 0.02,
        max_cycles: 8_000,
        seed: 42,
    }
}

/// A `serve_tcp` loop on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// A server over a fresh store.
fn open(tag: &str) -> Server {
    let store = std::env::temp_dir().join(format!("vs-bench-serve-tcp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    Server::open(&ServeOptions { store, settings: micro() }).expect("open store")
}

fn start(tag: &str) -> Running {
    let server = Arc::new(open(tag));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let thread = std::thread::spawn(move || serve_tcp(&server, listener));
    Running { addr, thread }
}

impl Running {
    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        Client { reader, writer: stream }
    }

    /// Sends `shutdown` on `client`, then checks that `serve_tcp` returns
    /// and that the port no longer accepts connections.
    fn shut_down(self, mut client: Client) {
        let reply = client.call(r#"{"id":"z","kind":"shutdown"}"#);
        assert_eq!(stages(&reply), ["accepted", "done"], "{reply:#?}");
        let deadline = Instant::now() + TIMEOUT;
        while !self.thread.is_finished() {
            assert!(Instant::now() < deadline, "serve_tcp still runs after shutdown");
            std::thread::sleep(Duration::from_millis(10));
        }
        self.thread.join().expect("accept loop panicked").expect("accept loop failed");
        assert!(TcpStream::connect(self.addr).is_err(), "the listener must be released");
    }
}

/// One client connection, reading event lines.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send request");
    }

    /// The next event line, or `None` once the server closed the session.
    fn line(&mut self) -> Option<String> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => None,
            Ok(_) => Some(buf.trim_end().to_string()),
            Err(e) => panic!("no reply line within {TIMEOUT:?}: {e}"),
        }
    }

    /// Reads event lines through the request's `done` or `degraded`.
    fn reply(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let line = self.line().unwrap_or_else(|| panic!("session closed mid-reply after {lines:#?}"));
            let end = matches!(stage(&line), "done" | "degraded");
            lines.push(line);
            if end {
                return lines;
            }
        }
    }

    /// Sends one request line (in one write) and reads its reply.
    fn call(&mut self, request: &str) -> Vec<String> {
        self.send(format!("{request}\n").as_bytes());
        self.reply()
    }
}

/// The lifecycle stage an event line names.
fn stage(line: &str) -> &str {
    line.split("\"name\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("not an event line: {line}"))
}

fn stages(lines: &[String]) -> Vec<&str> {
    lines.iter().map(|l| stage(l)).collect()
}

fn is_busy(line: &str) -> bool {
    stage(line) == "degraded" && line.contains("server busy")
}

#[test]
fn warm_replies_are_cached_byte_identical_and_fast() {
    let running = start("warm");
    let mut client = running.connect();
    let cold_point = client.call(POINT_REQ);
    assert_eq!(stages(&cold_point), ["accepted", "running", "done"], "{cold_point:#?}");
    let cold_exp = client.call(EXP_REQ);
    assert_eq!(stages(&cold_exp), ["accepted", "running", "done"], "{cold_exp:#?}");

    let mut latencies = Vec::new();
    for i in 0..60 {
        let (request, cold) = if i % 2 == 0 { (POINT_REQ, &cold_point) } else { (EXP_REQ, &cold_exp) };
        let t0 = Instant::now();
        let reply = client.call(request);
        latencies.push(t0.elapsed());
        assert_eq!(stages(&reply), ["accepted", "cached", "done"], "warm request {i}: {reply:#?}");
        assert_eq!(reply[2], cold[2], "warm request {i}: done line differs from the cold one");
    }
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p50 < Duration::from_millis(20),
        "median warm reply took {p50:?} (fastest {:?}, slowest {:?})",
        latencies[0],
        latencies[latencies.len() - 1],
    );
    running.shut_down(client);
}

#[test]
fn connections_over_the_cap_are_answered_busy() {
    let running = start("cap");
    // Serving each held connection once proves the accept loop counted it
    // before the next one connects.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|i| {
            let mut client = running.connect();
            let reply = client.call(PROBE);
            assert_eq!(stages(&reply), ["accepted", "degraded"], "connection {i}: {reply:#?}");
            client
        })
        .collect();

    let mut extra = running.connect();
    let busy = extra.line().expect("a connection over the cap is answered");
    assert!(is_busy(&busy), "{busy}");
    assert_eq!(extra.line(), None, "a busy connection is closed after its one line");

    // Closing a held connection frees its slot once its handler exits.
    drop(held.pop());
    let deadline = Instant::now() + TIMEOUT;
    let mut served = loop {
        let mut client = running.connect();
        client.send(format!("{PROBE}\n").as_bytes());
        let first = client.line().expect("an answer");
        if !is_busy(&first) {
            assert_eq!(stage(&first), "accepted", "{first}");
            client.reply();
            break client;
        }
        assert!(Instant::now() < deadline, "no slot freed after a connection closed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stages(&served.call(PROBE)), ["accepted", "degraded"]);
    // Every slot is taken again: the shutdown poke must still get through.
    running.shut_down(served);
}

#[test]
fn hostile_lines_answer_degraded_and_the_session_goes_on() {
    // A line of exactly the cap is still a request (trailing blanks are
    // trimmed); one byte more is refused before it is parsed.
    let at_cap = format!("{PROBE}{}", " ".repeat(MAX_LINE_BYTES - PROBE.len()));
    assert_eq!(at_cap.len(), MAX_LINE_BYTES);
    let hostile: [(Vec<u8>, &str); 3] = [
        (format!("{at_cap} \n").into_bytes(), "longer than"),
        (format!("{}\n", "x".repeat(4 * MAX_LINE_BYTES)).into_bytes(), "longer than"),
        (b"{\"id\":\"\xff\xfe\",\"kind\":\"point\"}\n".to_vec(), "not UTF-8"),
    ];

    let running = start("hostile");
    let mut client = running.connect();
    assert_eq!(stages(&client.call(&at_cap)), ["accepted", "degraded"]);
    for (line, reason) in &hostile {
        client.send(line);
        let reply = client.reply();
        assert_eq!(stages(&reply), ["degraded"], "{} bytes: {reply:#?}", line.len());
        assert!(reply[0].contains(reason), "{}", reply[0]);
    }
    assert_eq!(stages(&client.call(PROBE)), ["accepted", "degraded"], "the session keeps serving");
    running.shut_down(client);

    // A stdio session reads its lines the same way.
    let mut input: Vec<u8> = hostile.iter().flat_map(|(line, _)| line.iter().copied()).collect();
    input.extend_from_slice(format!("{PROBE}\n").as_bytes());
    let mut output = Vec::new();
    serve_lines(&open("hostile-stdio"), &input[..], &mut output).expect("a stdio session survives hostile lines");
    let text = String::from_utf8(output).expect("events are UTF-8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(stages(&lines), ["degraded", "degraded", "degraded", "accepted", "degraded"], "{lines:#?}");
}

//! The programs under test: building them from source, running them as
//! measured child processes, and the few Linux calls that measuring needs
//! (`wait4` for a child's own CPU time and peak memory, CPU affinity).

use std::ffi::{c_int, c_long};
use std::io::{self, BufRead, BufReader};
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::Instant;

use vs_telemetry::json::{self, Json};

/// Clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at 100 by
/// the Linux user-space ABI).
const CLK_TCK: f64 = 100.0;

/// The three binaries the workloads drive, and where their working files go.
#[derive(Debug, Clone)]
pub struct Programs {
    /// Repository root (the directory holding `goldens/`).
    pub root: PathBuf,
    /// `sweep` executable.
    pub sweep: PathBuf,
    /// `dse` executable.
    pub dse: PathBuf,
    /// `serve` executable.
    pub serve: PathBuf,
    /// Working directory inside the build's target directory.
    pub work: PathBuf,
}

impl Programs {
    /// Builds `sweep`, `dse` and `serve` in release mode from the
    /// repository this benchmark sits in, and locates the executables from
    /// cargo's own artifact messages (so `CARGO_TARGET_DIR` is honoured).
    pub fn build() -> Result<Programs, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark package has no parent directory")?
            .to_path_buf();
        let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
            .current_dir(&root)
            .args(["build", "--release", "--offline", "-p", "vs-bench"])
            .args(["--bin", "sweep", "--bin", "dse", "--bin", "serve"])
            .arg("--message-format=json-render-diagnostics")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "cargo build of the programs failed ({})",
                out.status
            ));
        }
        let mut exes: Vec<(String, PathBuf)> = Vec::new();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let Ok(msg) = json::parse(line) else { continue };
            if let (Some(name), Some(exe)) = (
                msg.get("target")
                    .and_then(|t| t.get("name"))
                    .and_then(Json::as_str),
                msg.get("executable").and_then(Json::as_str),
            ) {
                exes.push((name.to_string(), PathBuf::from(exe)));
            }
        }
        let find = |name: &str| {
            exes.iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.clone())
                .ok_or(format!("cargo reported no `{name}` executable"))
        };
        let sweep = find("sweep")?;
        let work = sweep
            .parent()
            .and_then(Path::parent)
            .ok_or("unexpected executable layout")?
            .join("benchmark-work")
            .join(std::process::id().to_string());
        Ok(Programs {
            root,
            sweep,
            dse: find("dse")?,
            serve: find("serve")?,
            work,
        })
    }

    /// A fresh, empty working directory `work/<name>`.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Removes every working directory.
    pub fn clean(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// User+system seconds of a live process (`utime + stime` of
/// `/proc/<pid>/stat`, fields 14 and 15).
pub fn process_cpu_s(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesized command name start at field 3.
    let rest = text.rfind(')').map_or("", |i| &text[i + 1..]);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|s| s.parse::<f64>().ok())
    };
    match (field(14), field(15)) {
        (Some(u), Some(s)) => (u + s) / CLK_TCK,
        _ => f64::NAN,
    }
}

/// `struct timeval` of the Linux LP64 ABI; `struct timespec` has the same
/// layout, with nanoseconds in the second field.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of the Linux LP64 ABI: user and system time, then 14
/// counters of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    counters: [c_long; 13],
}

/// A CPU mask as the kernel takes it: 1024 CPUs, like glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timeval) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuMask) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuMask) -> c_int;
}

/// How a reaped child ended and what it used over its whole life.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// How it exited.
    pub status: ExitStatus,
    /// User+system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kib: u64,
}

/// Waits for `child` with `wait4`, which reports the child's own CPU time
/// and peak resident set (not an aggregate over every child).
fn reap(child: Child) -> Result<Usage, String> {
    let pid = c_int::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // values of the C types `wait4` writes; `pid` names our own child,
        // which nothing else reaps (`child` is consumed here).
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(format!("cannot wait for pid {pid}: {err}"));
        }
    }
    drop(child);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        status: ExitStatus::from_raw(status),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// CPU time the calling thread has used, nanoseconds.
pub fn thread_cpu_ns() -> Option<u64> {
    let mut time = Timeval::default();
    // SAFETY: `time` is a live, exclusively borrowed value with the layout
    // of the `struct timespec` the call writes.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } != 0 {
        return None;
    }
    let secs = u64::try_from(time.sec).ok()?;
    Some(secs * 1_000_000_000 + u64::try_from(time.usec).ok()?)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, exclusively borrowed buffer of exactly the
    // size passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

fn mask_of(cpus: &[usize]) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

fn set_mask(mask: &CpuMask) -> io::Result<()> {
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread. The call allocates nothing, so it may also run
    // between fork and exec.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Restricts the calling thread to `cpu`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    set_mask(&mask_of(&[cpu]))
}

/// Makes the process `cmd` spawns run on `cpus` only.
pub fn pin_command(cmd: &mut Command, cpus: &[usize]) {
    let mask = mask_of(cpus);
    // SAFETY: the hook only calls `sched_setaffinity` on a mask built
    // before the fork, which is async-signal-safe, as code between fork
    // and exec must be.
    unsafe {
        cmd.pre_exec(move || set_mask(&mask));
    }
}

/// A finished, measured child process.
#[derive(Debug)]
pub struct Finished {
    /// How it exited.
    pub status: ExitStatus,
    /// Spawn to reaped exit, seconds.
    pub wall_s: f64,
    /// User+system CPU seconds it used.
    pub cpu_s: f64,
    /// Its peak resident set, KiB.
    pub maxrss_kib: u64,
    /// Its stderr lines (stdout is discarded: the programs report their
    /// verdicts through exit codes and files).
    pub stderr: Vec<String>,
}

impl Finished {
    /// The exit code, or -1 when killed by a signal.
    pub fn code(&self) -> i32 {
        self.status.code().unwrap_or(-1)
    }
}

/// Runs `cmd` to completion with stdin closed and stderr captured,
/// measuring wall time, CPU time and peak memory.
pub fn run_measured(cmd: &mut Command) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let err = child.stderr.take().expect("stderr was piped");
    let stderr_reader = thread::spawn(move || {
        BufReader::new(err)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<_>>()
    });
    let usage = reap(child)?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Finished {
        status: usage.status,
        wall_s,
        cpu_s: usage.cpu_s,
        maxrss_kib: usage.maxrss_kib,
        stderr: stderr_reader
            .join()
            .map_err(|_| "stderr reader panicked".to_string())?,
    })
}

/// A long-lived child (the server): killed and reaped on drop, so an
/// early return never leaves it running.
#[derive(Debug)]
pub struct Guarded(pub Option<Child>);

impl Guarded {
    /// The child's pid.
    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    /// Waits for the child to exit (after it was asked to stop).
    pub fn wait(mut self) -> Result<Usage, String> {
        reap(self.0.take().expect("child present until waited"))
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

//! Host speed. On a shared host the same binary runs up to 1.5x slower for
//! tens of seconds at a time, when other tenants load the physical core
//! under one of our CPUs. A probe thread pinned to the CPUs a workload runs
//! on times a fixed chunk of the benchmark's own code every 200 ms, by the
//! thread's CPU time (so waiting for the CPU does not count). The
//! benchmark reports CPU-bound times divided by the run's slowdown factor:
//! seconds at the reference speed. The chunk is the benchmark's code, never
//! the program's, so a change to the program cannot move the factor.
//!
//! Chunk times are bimodal (a quiet core, or one shared with a busy
//! neighbour), and a run's time is its work integrated over its speed, so
//! the factor is the harmonic mean of the samples' slowdowns (the reference
//! speed over the mean speed), not their median, which would pick one mode.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::procs::{pin_current_thread, thread_cpu_ns};
use crate::stats::{median, SplitMix64};

/// CPU time of one chunk at the reference speed, nanoseconds: about its
/// time on an uncontended core of the two-CPU host the bounds were set on,
/// so scaled seconds read close to unscaled ones on a quiet host.
const REFERENCE_CHUNK_NS: f64 = 370_000.0;

/// Random read-modify-writes per chunk.
const CHUNK_STEPS: usize = 200_000;

/// The chunk's working set: 256 KiB, resident in a core's private cache,
/// so it slows with the core it shares rather than with memory traffic.
const CHUNK_WORDS: usize = 1 << 15;

/// Pause between probe rounds.
const INTERVAL: Duration = Duration::from_millis(200);

/// Reads the whole table back into the core's cache, so the timed chunk
/// does not depend on how much of it the workload evicted.
fn warm(table: &[u64]) {
    black_box(table.iter().fold(0u64, |acc, &w| acc ^ w));
}

/// The timed work: random updates of a cache-resident table.
fn chunk(table: &mut [u64], rng: &mut SplitMix64) {
    for _ in 0..CHUNK_STEPS {
        let i = rng.below(table.len());
        table[i] = table[i]
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(table[(i + 1) % table.len()]);
    }
    black_box(&table);
}

/// The slowdown of a run sampled by `chunk_ns`: the harmonic mean of each
/// chunk time over the reference time (NaN without samples).
fn slowdown_of(chunk_ns: &[f64]) -> f64 {
    chunk_ns.len() as f64 / chunk_ns.iter().map(|t| REFERENCE_CHUNK_NS / t).sum::<f64>()
}

/// Times one chunk on each of `cpus` from a short-lived thread pinned
/// there, and returns the slowdown right now, for timing a short operation
/// that runs next.
pub fn slowdown_now(cpus: &[usize]) -> f64 {
    let times: Vec<f64> = thread::scope(|scope| {
        cpus.iter()
            .filter_map(|&cpu| {
                scope
                    .spawn(move || {
                        pin_current_thread(cpu).ok()?;
                        let mut table = vec![1u64; CHUNK_WORDS];
                        let mut rng = SplitMix64::new(1);
                        chunk(&mut table, &mut rng);
                        warm(&table);
                        let start = thread_cpu_ns()?;
                        chunk(&mut table, &mut rng);
                        Some(thread_cpu_ns()?.saturating_sub(start) as f64)
                    })
                    .join()
                    .ok()
                    .flatten()
            })
            .collect()
    });
    slowdown_of(&times)
}

/// Median set-up time over several restarts.
#[derive(Debug, Clone)]
pub struct Restarts {
    /// Median wall, host seconds.
    pub raw_s: f64,
    /// Median of each wall divided by the slowdown probed just before it.
    pub scaled_s: f64,
    /// Restarts made.
    pub count: usize,
    /// The first restart that went wrong, if any (no more were made).
    pub problem: Option<String>,
}

/// Makes `n` restarts, each right after a probe of `cpus`. `restart(i)`
/// returns its wall seconds and, when the restart misbehaved, what went
/// wrong. A set-up lasts tens of milliseconds, so it is scaled by the
/// slowdown at that moment rather than by the run's factor.
pub fn restarts(
    n: usize,
    cpus: &[usize],
    mut restart: impl FnMut(usize) -> Result<(f64, Option<String>), String>,
) -> Result<Restarts, String> {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for i in 0..n {
        let slow = slowdown_now(cpus);
        let (wall, problem) = restart(i)?;
        raw.push(wall);
        scaled.push(wall / slow);
        if problem.is_some() {
            return Ok(Restarts::of(&raw, &scaled, problem));
        }
    }
    Ok(Restarts::of(&raw, &scaled, None))
}

impl Restarts {
    fn of(raw: &[f64], scaled: &[f64], problem: Option<String>) -> Restarts {
        Restarts {
            raw_s: median(raw).unwrap_or(f64::NAN),
            scaled_s: median(scaled).unwrap_or(f64::NAN),
            count: raw.len(),
            problem,
        }
    }
}

/// A running probe; dropping it unfinished stops its thread too.
struct SpeedProbe {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<f64>>>,
}

/// What a probe measured.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    /// Harmonic mean of the chunk slowdowns over the probed CPUs (1.25 =
    /// the host ran 25% slower than the reference).
    pub factor: f64,
    /// Chunks timed.
    pub samples: usize,
}

impl Slowdown {
    /// Host seconds converted to seconds at the reference speed.
    pub fn scale(&self, seconds: f64) -> f64 {
        seconds / self.factor
    }

    /// One report line with the factor and the raw values it scaled.
    pub fn detail(&self, raw: &[(&str, f64)]) -> String {
        let raw: Vec<String> = raw
            .iter()
            .map(|(name, v)| format!("{name} {v:.6}"))
            .collect();
        format!(
            "host slowdown {:.4} over {} probe chunks; unscaled {}",
            self.factor,
            self.samples,
            raw.join(", ")
        )
    }
}

/// Runs `f` under a probe of `cpus` and returns its result with the
/// slowdown seen meanwhile.
pub fn probed<T>(
    cpus: &[usize],
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Slowdown), String> {
    let probe = SpeedProbe::start(cpus.to_vec());
    let value = f()?;
    Ok((value, probe.finish()))
}

impl SpeedProbe {
    /// Starts probing `cpus` in turn.
    fn start(cpus: Vec<usize>) -> SpeedProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut table = vec![1u64; CHUNK_WORDS];
            let mut rng = SplitMix64::new(1);
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                for &cpu in &cpus {
                    if pin_current_thread(cpu).is_err() {
                        continue;
                    }
                    warm(&table);
                    let Some(start) = thread_cpu_ns() else {
                        continue;
                    };
                    chunk(&mut table, &mut rng);
                    if let Some(end) = thread_cpu_ns() {
                        samples.push(end.saturating_sub(start) as f64);
                    }
                }
                thread::sleep(INTERVAL);
            }
            samples
        });
        SpeedProbe {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the probe and returns the slowdown it saw (`factor` is NaN
    /// when no chunk could be timed).
    fn finish(mut self) -> Slowdown {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .handle
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        Slowdown {
            factor: slowdown_of(&samples),
            samples: samples.len(),
        }
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_speed_not_the_median() {
        let quiet = REFERENCE_CHUNK_NS;
        // A run spent half its samples at full speed and half at a third:
        // it did two thirds of the reference work per second.
        let samples = [quiet, quiet, 3.0 * quiet, 3.0 * quiet, 3.0 * quiet, quiet];
        assert!((slowdown_of(&samples) - 1.5).abs() < 1e-12);
        assert!((slowdown_of(&[quiet; 4]) - 1.0).abs() < 1e-12);
        assert!(slowdown_of(&[]).is_nan());
    }
}

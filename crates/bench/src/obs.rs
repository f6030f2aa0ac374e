//! The progress sink: how the binaries narrate a run on stderr.
//!
//! `--progress=plain|json|off` selects the form: human one-liners, one
//! [`vs_telemetry::lifecycle_json`] object per line (the same cat/name/args
//! identity the executor's trace events carry), or nothing. The mode is an
//! output setting, like a logger's level: a binary sets it once
//! ([`set_progress`]), and no run reads it back into anything it computes.
//!
//! Everything a run records — its trace spans and executor metrics — lives
//! on its [`crate::Executor`] (see [`crate::shard`]), not here.
//! Progress is observational: artifact bytes depend only on
//! [`crate::RunSettings`].

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

use vs_telemetry::lifecycle_json;

/// How the binaries narrate progress on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Human-oriented one-liners (the historical format).
    #[default]
    Plain,
    /// One [`vs_telemetry::lifecycle_json`] object per line — the same
    /// cat/name/args vocabulary as the trace events, for scripted
    /// consumers.
    Json,
    /// Silent.
    Off,
}

impl FromStr for ProgressMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => Ok(ProgressMode::Plain),
            "json" => Ok(ProgressMode::Json),
            "off" => Ok(ProgressMode::Off),
            other => Err(format!(
                "invalid progress mode {other:?} (expected plain, json, or off)"
            )),
        }
    }
}

static PROGRESS_MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the process-wide progress mode.
pub fn set_progress(mode: ProgressMode) {
    let v = match mode {
        ProgressMode::Plain => 0,
        ProgressMode::Json => 1,
        ProgressMode::Off => 2,
    };
    PROGRESS_MODE.store(v, Ordering::Relaxed);
}

/// The current progress mode.
fn progress_mode() -> ProgressMode {
    match PROGRESS_MODE.load(Ordering::Relaxed) {
        1 => ProgressMode::Json,
        2 => ProgressMode::Off,
        _ => ProgressMode::Plain,
    }
}

/// Emits one progress line on stderr. `plain` builds the human text (only
/// called in plain mode); JSON mode prints the lifecycle-event form of the
/// same (cat, name, args); off prints nothing. Progress is observational —
/// it never touches artifact bytes, preserving the determinism contract.
pub fn progress(cat: &str, name: &str, args: &[(&str, String)], plain: impl FnOnce() -> String) {
    match progress_mode() {
        ProgressMode::Off => {}
        ProgressMode::Plain => eprintln!("{}", plain()),
        ProgressMode::Json => {
            eprintln!("{}", lifecycle_json(cat, name, args).to_string_compact());
        }
    }
}

/// Routes an experiment-internal step line through the progress sink:
/// plain mode prints `text` exactly as the old free-form stderr line did;
/// JSON mode wraps it in a `(experiment, step)` lifecycle event; off
/// silences it.
pub fn progress_step(text: &str) {
    progress("experiment", "step", &[("detail", text.trim().to_string())], || text.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_mode_parses() {
        assert_eq!("plain".parse::<ProgressMode>().unwrap(), ProgressMode::Plain);
        assert_eq!("json".parse::<ProgressMode>().unwrap(), ProgressMode::Json);
        assert_eq!("off".parse::<ProgressMode>().unwrap(), ProgressMode::Off);
        assert!("verbose".parse::<ProgressMode>().is_err());
    }
}

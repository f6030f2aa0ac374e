//! The progress sink: how the binaries narrate a run on stderr.
//!
//! `--progress=plain|off` selects the form: human one-liners, or nothing.
//! The mode is an output setting, like a logger's level: a binary sets it
//! once ([`set_progress`]), and no run reads it back into anything it
//! computes.
//!
//! Everything a run records — its trace spans and executor metrics — lives
//! on its [`crate::Executor`] (see [`crate::shard`]), not here.
//! Progress is observational: artifact bytes depend only on
//! [`crate::RunSettings`].

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// How the binaries narrate progress on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Human-oriented one-liners.
    #[default]
    Plain,
    /// Silent.
    Off,
}

impl FromStr for ProgressMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => Ok(ProgressMode::Plain),
            "off" => Ok(ProgressMode::Off),
            other => Err(format!(
                "invalid progress mode {other:?} (expected plain or off)"
            )),
        }
    }
}

static PROGRESS_OFF: AtomicBool = AtomicBool::new(false);

/// Selects the process-wide progress mode.
pub fn set_progress(mode: ProgressMode) {
    PROGRESS_OFF.store(mode == ProgressMode::Off, Ordering::Relaxed);
}

/// Prints one progress line on stderr; `text` builds it, and runs only
/// when progress is on. Progress is observational — it never touches
/// artifact bytes, preserving the determinism contract.
pub fn progress<T: fmt::Display>(text: impl FnOnce() -> T) {
    if !PROGRESS_OFF.load(Ordering::Relaxed) {
        eprintln!("{}", text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_mode_parses() {
        assert_eq!("plain".parse::<ProgressMode>().unwrap(), ProgressMode::Plain);
        assert_eq!("off".parse::<ProgressMode>().unwrap(), ProgressMode::Off);
        assert!("json".parse::<ProgressMode>().is_err());
        assert!("verbose".parse::<ProgressMode>().is_err());
    }
}

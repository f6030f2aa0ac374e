//! One argument parser for the artifact-writing binaries.
//!
//! `sweep`, `fault_campaign`, `dse`, and `serve` share a vocabulary of
//! executor flags — `--jobs`, `--out`, `--resume`, `--trace`,
//! `--progress` — that used to be re-implemented as per-binary
//! `std::env::args` loops with subtly different error behaviour. This
//! module parses them once into a typed [`CommonArgs`], lets each binary
//! declare its extra flags as data ([`ArgSpec`]), and generates `--help`
//! from the same declarations, so the help text can never drift from what
//! the parser accepts. The run-settings pair [`PROFILE_FLAG`] and
//! [`SEED_FLAG`] is declared here too, and resolved once by
//! [`Parsed::run_settings_or_exit`].
//!
//! Contract (shared exit codes): `--help`/`-h` prints the generated help
//! and exits 0; an unknown flag, a missing value, a malformed value, an
//! empty value (`--flag=`), or a repeated flag prints an error naming the
//! flag plus the usage line and exits 2. Every value flag accepts both
//! `--flag VALUE` and `--flag=VALUE`. Repeats are rejected rather than
//! last-wins: a command line that says `--jobs 2 --jobs 8` is ambiguous
//! about intent, and the server's request log must never record an
//! argument the run ignored.

use std::fmt;
use std::path::PathBuf;

use crate::obs::ProgressMode;
use crate::RunSettings;

/// A binary-specific flag, declared as data so parsing and `--help` agree.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Flag name including the dashes (`"--only"`).
    pub name: &'static str,
    /// Placeholder for the value (`Some("id,...")`), or `None` for a
    /// boolean flag.
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// The common executor flags, with their help lines. A binary opts into a
/// subset via [`CommandSpec::common`]; flags outside the subset are
/// rejected like any unknown flag.
pub const COMMON_FLAGS: [ArgSpec; 5] = [
    ArgSpec { name: "--jobs", value: Some("N"), help: "worker threads (0 or absent = one per core)" },
    ArgSpec { name: "--out", value: Some("DIR"), help: "output directory for artifacts" },
    ArgSpec { name: "--resume", value: Some("DIR"), help: "resume from DIR's completion journal" },
    ArgSpec { name: "--trace", value: None, help: "record executor spans; write trace.json into --out (serve: into its store directory)" },
    ArgSpec { name: "--progress", value: Some("plain|json|off"), help: "progress narration mode on stderr" },
];

/// `--profile env|golden|tiny`: the [`RunSettings`] a run starts from.
pub const PROFILE_FLAG: ArgSpec = ArgSpec {
    name: "--profile",
    value: Some("env|golden|tiny"),
    help: "run-settings profile (default env)",
};

/// `--seed N`: overrides the profile's workload seed.
pub const SEED_FLAG: ArgSpec = ArgSpec { name: "--seed", value: Some("N"), help: "override the workload seed" };

/// What one binary (or subcommand) accepts: which common flags, which
/// extras, and how many positional arguments.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// Program name for usage/help lines (`"sweep"`).
    pub prog: &'static str,
    /// One-line description printed at the top of `--help`.
    pub about: &'static str,
    /// The subset of [`COMMON_FLAGS`] names this command accepts.
    pub common: &'static [&'static str],
    /// Binary-specific flags.
    pub extras: &'static [ArgSpec],
    /// Placeholders for accepted positional arguments (also their maximum
    /// count), e.g. `&["GOLDEN", "CANDIDATE"]`.
    pub positionals: &'static [&'static str],
}

/// The consolidated executor flags every artifact-writing binary shares.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommonArgs {
    /// `--jobs N`: worker count (0 = one per core).
    pub jobs: usize,
    /// `--out DIR`.
    pub out: Option<PathBuf>,
    /// `--resume DIR`.
    pub resume: Option<PathBuf>,
    /// `--trace`.
    pub trace: bool,
    /// `--progress MODE` (already validated).
    pub progress: Option<ProgressMode>,
}

impl CommonArgs {
    /// Sets the process-wide progress mode, if `--progress` was given.
    /// Separate from parsing so tests can parse without mutating global
    /// state. `--trace` is the binary's to apply, to the executor it
    /// builds.
    pub fn apply_observability(&self) {
        if let Some(mode) = self.progress {
            crate::obs::set_progress(mode);
        }
    }
}

/// A successful parse: the typed common flags plus the binary's extras.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Parsed {
    /// The shared executor flags.
    pub common: CommonArgs,
    /// Extra flags in occurrence order: `(name, value)` (`None` for
    /// boolean flags).
    pub extras: Vec<(String, Option<String>)>,
    /// Positional arguments in order.
    pub positionals: Vec<String>,
}

impl Parsed {
    /// The value given for an extra value-flag (flags are unique: a repeat
    /// is a parse error, so there is no "last wins" to resolve).
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether an extra flag was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.extras.iter().any(|(n, _)| n == name)
    }

    /// The run settings [`PROFILE_FLAG`] (default env) and [`SEED_FLAG`]
    /// select.
    ///
    /// # Errors
    ///
    /// A malformed `VS_BENCH_*` under the env profile, an unknown profile,
    /// or a non-integer seed.
    pub fn run_settings(&self) -> Result<RunSettings, String> {
        let mut settings = match self.extra(PROFILE_FLAG.name).unwrap_or("env") {
            "env" => RunSettings::try_from_env().map_err(|e| e.to_string())?,
            "golden" => RunSettings::golden_profile(),
            "tiny" => RunSettings::tiny_profile(),
            other => return Err(format!("unknown profile {other:?} (env|golden|tiny)")),
        };
        if let Some(seed) = self.extra(SEED_FLAG.name) {
            settings.seed = seed.parse().map_err(|_| "--seed must be an integer".to_string())?;
        }
        Ok(settings)
    }

    /// [`Parsed::run_settings`] for binaries: prints the error and exits
    /// with status 2.
    pub fn run_settings_or_exit(&self) -> RunSettings {
        self.run_settings().unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }
}

/// Why a parse stopped: the user asked for help, or the input is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: carries the generated help text; exit 0.
    Help(String),
    /// Bad input: carries the error message (usage is appended by
    /// [`CommandSpec::parse_or_exit`]); exit 2.
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help(text) => f.write_str(text),
            CliError::Usage(msg) => write!(f, "error: {msg}"),
        }
    }
}

impl CommandSpec {
    fn common_specs(&self) -> impl Iterator<Item = &'static ArgSpec> + '_ {
        COMMON_FLAGS
            .iter()
            .filter(|spec| self.common.contains(&spec.name))
    }

    /// The one-line usage synopsis.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.prog);
        for spec in self.common_specs().chain(self.extras.iter()) {
            match spec.value {
                Some(v) => line.push_str(&format!(" [{} {v}]", spec.name)),
                None => line.push_str(&format!(" [{}]", spec.name)),
            }
        }
        for p in self.positionals {
            line.push_str(&format!(" <{p}>"));
        }
        line
    }

    /// The generated `--help` text: about, usage, one aligned line per
    /// flag.
    pub fn help(&self) -> String {
        let mut rows: Vec<(String, &str)> = Vec::new();
        for spec in self.common_specs().chain(self.extras.iter()) {
            let left = match spec.value {
                Some(v) => format!("{} {v}", spec.name),
                None => spec.name.to_string(),
            };
            rows.push((left, spec.help));
        }
        rows.push(("--help".to_string(), "print this help and exit"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("{}\n\n{}\n\noptions:\n", self.about, self.usage());
        for (left, help) in rows {
            out.push_str(&format!("  {left:<width$}  {help}\n"));
        }
        out
    }

    /// Parses `args` (without the program name) against this spec.
    pub fn parse(&self, args: &[String]) -> Result<Parsed, CliError> {
        let mut parsed = Parsed::default();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut it = args.iter();
        while let Some(raw) = it.next() {
            if raw == "--help" || raw == "-h" {
                return Err(CliError::Help(self.help()));
            }
            if !raw.starts_with("--") {
                if parsed.positionals.len() >= self.positionals.len() {
                    return Err(CliError::Usage(format!("unexpected argument {raw:?}")));
                }
                parsed.positionals.push(raw.clone());
                continue;
            }
            // Split `--flag=VALUE`; `--flag VALUE` takes the next word.
            let (name, inline) = match raw.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (raw.as_str(), None),
            };
            let spec = self
                .common_specs()
                .chain(self.extras.iter())
                .find(|s| s.name == name)
                .ok_or_else(|| CliError::Usage(format!("unknown flag {name:?}")))?;
            if seen.contains(&spec.name) {
                return Err(CliError::Usage(format!("{name} given more than once")));
            }
            seen.push(spec.name);
            let value = match (spec.value, inline) {
                (Some(_), Some(v)) => Some(v),
                (Some(_), None) => Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?
                        .clone(),
                ),
                (None, Some(_)) => {
                    return Err(CliError::Usage(format!("{name} takes no value")));
                }
                (None, None) => None,
            };
            if value.as_deref() == Some("") {
                return Err(CliError::Usage(format!("{name} needs a non-empty value")));
            }
            if self.common.contains(&name) {
                self.set_common(&mut parsed.common, name, value)?;
            } else {
                parsed.extras.push((name.to_string(), value));
            }
        }
        Ok(parsed)
    }

    fn set_common(
        &self,
        common: &mut CommonArgs,
        name: &str,
        value: Option<String>,
    ) -> Result<(), CliError> {
        let count = |v: Option<String>| -> Result<usize, CliError> {
            v.unwrap_or_default()
                .parse()
                .map_err(|_| CliError::Usage(format!("{name} must be an integer")))
        };
        match name {
            "--jobs" => common.jobs = count(value)?,
            "--out" => common.out = Some(PathBuf::from(value.unwrap_or_default())),
            "--resume" => common.resume = Some(PathBuf::from(value.unwrap_or_default())),
            "--trace" => common.trace = true,
            "--progress" => {
                let mode = value.unwrap_or_default().parse().map_err(CliError::Usage)?;
                common.progress = Some(mode);
            }
            other => unreachable!("not a common flag: {other}"),
        }
        Ok(())
    }

    /// [`CommandSpec::parse`] for binaries: prints help and exits 0, or
    /// prints the error plus usage and exits 2.
    pub fn parse_or_exit(&self, args: &[String]) -> Parsed {
        match self.parse(args) {
            Ok(parsed) => parsed,
            Err(CliError::Help(text)) => {
                print!("{text}");
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("error: {msg}");
                eprintln!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_COMMON: &[&str] = &["--jobs", "--out", "--resume", "--trace", "--progress"];

    fn spec() -> CommandSpec {
        CommandSpec {
            prog: "demo",
            about: "demo binary",
            common: ALL_COMMON,
            extras: &[
                ArgSpec { name: "--seed", value: Some("N"), help: "workload seed" },
                ArgSpec { name: "--deterministic", value: None, help: "strip wall-time events" },
            ],
            positionals: &["GOLDEN", "CANDIDATE"],
        }
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_common_flags_both_styles() {
        let p = spec()
            .parse(&s(&["--jobs", "4", "--resume=r", "--trace", "--out", "d", "--progress=off"]))
            .unwrap();
        assert_eq!(p.common.jobs, 4);
        assert_eq!(p.common.resume.as_deref(), Some(std::path::Path::new("r")));
        assert!(p.common.trace);
        assert_eq!(p.common.out.as_deref(), Some(std::path::Path::new("d")));
        assert_eq!(p.common.progress, Some(ProgressMode::Off));
    }

    #[test]
    fn extras_and_positionals() {
        let p = spec()
            .parse(&s(&["gold", "--seed", "7", "--deterministic", "cand"]))
            .unwrap();
        assert_eq!(p.positionals, vec!["gold", "cand"]);
        assert_eq!(p.extra("--seed"), Some("7"));
        assert!(p.has("--deterministic"));
        assert!(!p.has("--resume"));
    }

    #[test]
    fn help_lists_every_accepted_flag_and_only_those() {
        let spec = CommandSpec { common: &["--jobs", "--progress"], ..spec() };
        let CliError::Help(text) = spec.parse(&s(&["--help"])).unwrap_err() else {
            panic!("expected help");
        };
        for needle in ["demo binary", "usage: demo", "--jobs N", "--progress plain|json|off", "--seed N", "--help"] {
            assert!(text.contains(needle), "help missing {needle:?}:\n{text}");
        }
        assert!(!text.contains("--resume"), "unaccepted common flag leaked into help");
    }

    #[test]
    fn errors_are_usage_errors() {
        for (args, needle) in [
            (s(&["--flux"]), "unknown flag \"--flux\""),
            (s(&["--jobs"]), "--jobs needs a value"),
            (s(&["--jobs", "x"]), "--jobs must be an integer"),
            (s(&["--trace=1"]), "--trace takes no value"),
            (s(&["--progress", "loud"]), "invalid progress mode"),
            (s(&["a", "b", "c"]), "unexpected argument \"c\""),
            // Repeated flags are ambiguous, not last-wins — common, extra,
            // boolean, and mixed-style (`--flag v` then `--flag=v`) alike.
            (s(&["--jobs", "2", "--jobs", "8"]), "--jobs given more than once"),
            (s(&["--seed", "7", "--seed=9"]), "--seed given more than once"),
            (s(&["--trace", "--trace"]), "--trace given more than once"),
            // Empty values are rejected for every value flag, both styles.
            (s(&["--out="]), "--out needs a non-empty value"),
            (s(&["--seed", ""]), "--seed needs a non-empty value"),
            (s(&["--resume="]), "--resume needs a non-empty value"),
            (s(&["--jobs="]), "--jobs needs a non-empty value"),
        ] {
            match spec().parse(&args) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(needle), "{args:?}: {msg}"),
                other => panic!("{args:?}: expected usage error, got {other:?}"),
            }
        }
        // A common flag outside the command's subset is unknown.
        let narrow = CommandSpec { common: &["--jobs"], ..spec() };
        match narrow.parse(&s(&["--resume", "r"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("unknown flag")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn run_settings_from_profile_and_seed() {
        let spec = CommandSpec { extras: &[PROFILE_FLAG, SEED_FLAG], ..spec() };
        let settings = |args: &[&str]| spec.parse(&s(args)).unwrap().run_settings();
        assert_eq!(settings(&["--profile", "golden"]), Ok(RunSettings::golden_profile()));
        let seeded = settings(&["--profile=tiny", "--seed", "7"]).unwrap();
        assert_eq!(seeded, RunSettings { seed: 7, ..RunSettings::tiny_profile() });
        assert!(settings(&["--profile", "huge"]).unwrap_err().contains("unknown profile"));
        assert!(settings(&["--profile", "tiny", "--seed", "x"]).unwrap_err().contains("--seed"));
    }

    #[test]
    fn usage_line_covers_flags_and_positionals() {
        let u = spec().usage();
        assert!(u.starts_with("usage: demo"));
        for needle in ["[--jobs N]", "[--trace]", "[--seed N]", "<GOLDEN>", "<CANDIDATE>"] {
            assert!(u.contains(needle), "usage missing {needle:?}: {u}");
        }
    }
}

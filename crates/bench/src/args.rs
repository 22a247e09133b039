//! Minimal `--key value` argument parsing for the experiment binaries —
//! keeps the dependency footprint to the sanctioned offline crates.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed `--key value` arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// Every `--key` given, with its value (`None` for a bare flag).
    given: HashMap<String, Option<String>>,
    /// Tokens that are neither a `--key` nor a key's value.
    strays: Vec<String>,
    /// Every key the binary has asked for — what [`Args::finish`] checks
    /// the parsed keys against.
    asked: RefCell<BTreeSet<String>>,
}

/// Unwraps a parse result, or names the usage error and exits with code 2.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

impl Args {
    /// Parses the process arguments. `--key value` pairs become values;
    /// bare `--flag`s (followed by another `--` or nothing) become flags.
    pub fn parse() -> Self {
        Self::from_argv(std::env::args().skip(1).collect())
    }

    fn from_argv(argv: Vec<String>) -> Self {
        let mut args = Self::default();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = argv.next_if(|next| !next.starts_with("--"));
                    args.given.insert(key.to_string(), value);
                }
                None => args.strays.push(arg),
            }
        }
        args
    }

    /// Ends argument reading: a token on the command line that is neither
    /// a `--key` nor a key's value, or a `--key` that the binary never
    /// asked for (through [`Args::get`], [`Args::value`], [`Args::flag`]
    /// or [`Args::threads`]), is a usage error — the process names it and
    /// exits with code 2 instead of running the experiment without it.
    /// Call once, after the last read and before any work.
    pub fn finish(&self) {
        or_exit(self.try_finish());
    }

    /// [`Args::finish`], returning the usage error instead of exiting.
    fn try_finish(&self) -> Result<(), String> {
        if let Some(stray) = self.strays.first() {
            return Err(format!("unexpected argument `{stray}`"));
        }
        let asked = self.asked.borrow();
        // The smallest, so the message does not depend on hash order.
        let unknown = self.given.keys().filter(|key| !asked.contains(*key)).min();
        match unknown {
            None => Ok(()),
            Some(key) => Err(format!("unknown flag `--{key}`")),
        }
    }

    /// Looks `key` up, recording that the binary asked for it.
    fn lookup(&self, key: &str) -> Option<&Option<String>> {
        self.asked.borrow_mut().insert(key.to_string());
        self.given.get(key)
    }

    /// [`Args::value`], returning the usage error instead of exiting.
    fn try_value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.lookup(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs a value")),
            Some(Some(raw)) => Ok(Some(raw)),
        }
    }

    /// A typed value with a default. A value that is missing after its
    /// key, or present but unparseable, is a usage error: the process
    /// prints a message naming the flag and the value, and exits with
    /// code 2 — it never runs the experiment at the default instead.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        or_exit(self.try_get(key, default))
    }

    /// [`Args::get`], returning the usage error instead of exiting.
    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.try_value(key)? {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                format!(
                    "invalid value `{raw}` for --{key}: expected {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// The raw string value of `--key value`, if present. A `--key` given
    /// without a value is a usage error (exit code 2).
    pub fn value(&self, key: &str) -> Option<&str> {
        or_exit(self.try_value(key))
    }

    /// Whether a bare flag was passed. A flag given a value
    /// (`--smoke 20000`) is a usage error (exit code 2).
    pub fn flag(&self, key: &str) -> bool {
        or_exit(self.try_flag(key))
    }

    /// [`Args::flag`], returning the usage error instead of exiting.
    fn try_flag(&self, key: &str) -> Result<bool, String> {
        match self.lookup(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(raw)) => Err(format!("--{key} takes no value, got `{raw}`")),
        }
    }

    /// Worker threads for sharded aggregation
    /// (`--threads N`, default 1). Only wall-clock time is affected; all
    /// virtual-time outputs are bit-identical at any setting.
    pub fn threads(&self) -> usize {
        self.get("threads", 1usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_defaults() {
        let a = Args::default();
        assert_eq!(a.get("tuples", 42u64), 42);
        assert!(!a.flag("full"));
    }

    fn args(argv: &[&str]) -> Args {
        Args::from_argv(argv.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unparseable_values_are_usage_errors_not_defaults() {
        assert_eq!(args(&["--threads", "4"]).try_get("threads", 1usize), Ok(4));
        assert_eq!(args(&["--threads", "4"]).threads(), 4);
        let err = args(&["--threads", "abc"])
            .try_get("threads", 1usize)
            .unwrap_err();
        assert!(err.contains("--threads") && err.contains("abc"), "{err}");
        // The letter O in place of a zero must not run the 1M-tuple default.
        let err = args(&["--smoke", "--tuples", "2O000"])
            .try_get("tuples", 1_000_000u64)
            .unwrap_err();
        assert!(err.contains("--tuples") && err.contains("2O000"), "{err}");
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_ignored() {
        // A typo of --threads must not run the sweep at one thread.
        let a = args(&["--smoke", "--thread", "4", "--json-out", "a.json"]);
        assert!(a.flag("smoke"));
        assert_eq!(a.threads(), 1);
        assert_eq!(a.value("json-out"), Some("a.json"));
        assert_eq!(a.try_finish(), Err("unknown flag `--thread`".to_string()));
        // Every way of asking counts, given or not; a bare flag is checked too.
        let a = args(&["--smoke", "--threads", "4", "--csv-out", "a.csv"]);
        let _ = (a.flag("smoke"), a.threads(), a.value("csv-out"));
        let _ = (a.get("tuples", 1u64), a.value("json-out"));
        assert_eq!(a.try_finish(), Ok(()));
        assert!(args(&["--smok"]).try_finish().is_err());
        // Since PR 19 `fig7` no longer reads `--trace-out`, nor `table2`
        // `--threads`: each reads what it does read, then refuses the rest.
        let a = args(&["--tuples", "20000", "--trace-out", "x"]);
        let _ = (a.get("tuples", 1u64), a.get("seed", 1u64));
        let _ = (a.get("queries", 1usize), a.threads());
        assert_eq!(a.try_finish(), Err("unknown flag `--trace-out`".into()));
        let a = args(&["--threads", "4"]);
        let _ = (a.get("tuples", 1u64), a.get("seed", 1u64));
        assert_eq!(a.try_finish(), Err("unknown flag `--threads`".into()));
    }

    #[test]
    fn wrong_arity_and_stray_tokens_are_usage_errors_not_dropped() {
        // `--threads` lost its value: it must not become a bare flag that
        // `get` never looks at.
        let a = args(&["--smoke", "--threads", "--json-out", "a.json"]);
        let err = a.try_get("threads", 1usize).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
        let err = args(&["--trace-out"]).try_value("trace-out").unwrap_err();
        assert!(err.contains("--trace-out needs a value"), "{err}");
        // `--smoke 20000` must not read as "not smoke" and run the full
        // 1M-tuple sweep.
        let a = args(&["--smoke", "20000", "--threads", "4"]);
        let err = a.try_flag("smoke").unwrap_err();
        assert!(err.contains("--smoke") && err.contains("20000"), "{err}");
        assert_eq!(a.try_get("threads", 1usize), Ok(4));
        // A positional token no key consumed (`fig7 smoke`).
        let a = args(&["smoke", "--tuples", "5"]);
        assert_eq!(a.try_get("tuples", 1u64), Ok(5));
        assert_eq!(
            a.try_finish(),
            Err("unexpected argument `smoke`".to_string())
        );
        // Right arity still reads as before.
        let a = args(&["--smoke", "--json-out", "a.json"]);
        assert_eq!(a.try_flag("smoke"), Ok(true));
        assert_eq!(a.try_flag("full"), Ok(false));
        assert_eq!(a.try_value("json-out"), Ok(Some("a.json")));
        assert_eq!(a.try_value("csv-out"), Ok(None));
        assert_eq!(a.try_finish(), Ok(()));
    }
}

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
    /// The first `--key` given more than once.
    repeated: Option<String>,
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
                    if args.given.insert(key.to_string(), value).is_some() {
                        args.repeated.get_or_insert_with(|| key.to_string());
                    }
                }
                None => args.strays.push(arg),
            }
        }
        args
    }

    /// Ends argument reading: a token on the command line that is neither
    /// a `--key` nor a key's value, a `--key` given twice, or a `--key`
    /// that the binary never asked for (through [`Args::get`],
    /// [`Args::value`] or `Args::flag`), is a usage error — the process
    /// names it and exits with code 2 instead of running the experiment
    /// without it. Call once, after the last read and before any work.
    pub fn finish(&self) {
        or_exit(self.try_finish());
    }

    /// [`Args::finish`], returning the usage error instead of exiting.
    fn try_finish(&self) -> Result<(), String> {
        if let Some(stray) = self.strays.first() {
            return Err(format!("unexpected argument `{stray}`"));
        }
        if let Some(key) = &self.repeated {
            return Err(format!("flag `--{key}` given more than once"));
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
    pub(crate) fn flag(&self, key: &str) -> bool {
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
        assert_eq!(args(&["--queries", "4"]).try_get("queries", 1usize), Ok(4));
        let err = args(&["--queries", "abc"])
            .try_get("queries", 1usize)
            .unwrap_err();
        assert!(err.contains("--queries") && err.contains("abc"), "{err}");
        // The letter O in place of a zero must not run the 1M-tuple default.
        let err = args(&["--smoke", "--tuples", "2O000"])
            .try_get("tuples", 1_000_000u64)
            .unwrap_err();
        assert!(err.contains("--tuples") && err.contains("2O000"), "{err}");
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_ignored() {
        // A typo of --queries must not run the sweep at the default.
        let a = args(&["--smoke", "--querie", "4", "--json-out", "a.json"]);
        assert!(a.flag("smoke"));
        assert_eq!(a.get("queries", 1usize), 1);
        assert_eq!(a.value("json-out"), Some("a.json"));
        assert_eq!(a.try_finish(), Err("unknown flag `--querie`".to_string()));
        // Every way of asking counts, given or not; a bare flag is checked too.
        let a = args(&["--smoke", "--queries", "4", "--trace-out", "a.json"]);
        let _ = (
            a.flag("smoke"),
            a.get("queries", 1usize),
            a.value("trace-out"),
        );
        let _ = (a.get("tuples", 1u64), a.value("json-out"));
        assert_eq!(a.try_finish(), Ok(()));
        assert!(args(&["--smok"]).try_finish().is_err());
        // `fig7` does not read `--trace-out`, and no binary reads
        // `--threads`: each reads what it does read, then refuses the rest.
        let a = args(&["--tuples", "20000", "--trace-out", "x"]);
        let _ = (a.get("tuples", 1u64), a.get("seed", 1u64));
        let _ = a.get("queries", 1usize);
        assert_eq!(a.try_finish(), Err("unknown flag `--trace-out`".into()));
        let a = args(&["--threads", "4"]);
        let _ = (a.get("tuples", 1u64), a.get("seed", 1u64));
        assert_eq!(a.try_finish(), Err("unknown flag `--threads`".into()));
    }

    #[test]
    fn a_repeated_flag_is_a_usage_error_not_overwritten() {
        // `--tuples 20000 --tuples 1000000` must not run at 1M silently.
        let a = args(&["--tuples", "20000", "--seed", "3", "--tuples", "1000000"]);
        let _ = (a.get("tuples", 1u64), a.get("seed", 1u64));
        let err = a.try_finish().unwrap_err();
        assert_eq!(err, "flag `--tuples` given more than once");
        // A bare flag twice, too.
        let a = args(&["--smoke", "--smoke"]);
        let _ = a.flag("smoke");
        assert!(a.try_finish().unwrap_err().contains("--smoke"));
    }

    #[test]
    fn wrong_arity_and_stray_tokens_are_usage_errors_not_dropped() {
        // `--queries` lost its value: it must not become a bare flag that
        // `get` never looks at.
        let a = args(&["--smoke", "--queries", "--json-out", "a.json"]);
        let err = a.try_get("queries", 1usize).unwrap_err();
        assert!(err.contains("--queries needs a value"), "{err}");
        let err = args(&["--trace-out"]).try_value("trace-out").unwrap_err();
        assert!(err.contains("--trace-out needs a value"), "{err}");
        // `--smoke 20000` must not read as "not smoke" and run the full
        // 1M-tuple sweep.
        let a = args(&["--smoke", "20000", "--queries", "4"]);
        let err = a.try_flag("smoke").unwrap_err();
        assert!(err.contains("--smoke") && err.contains("20000"), "{err}");
        assert_eq!(a.try_get("queries", 1usize), Ok(4));
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
        assert_eq!(a.try_value("trace-out"), Ok(None));
        assert_eq!(a.try_finish(), Ok(()));
    }
}

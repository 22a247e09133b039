//! Minimal `--key value` argument parsing for the experiment binaries —
//! keeps the dependency footprint to the sanctioned offline crates.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed `--key value` arguments.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every key the binary has asked for — what [`Args::finish`] checks
    /// the parsed keys against.
    asked: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses the process arguments. `--key value` pairs become values;
    /// bare `--flag`s (followed by another `--` or nothing) become flags.
    pub fn parse() -> Self {
        Self::from_argv(std::env::args().skip(1).collect())
    }

    fn from_argv(argv: Vec<String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(key) = arg.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    values.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Self {
            values,
            flags,
            asked: RefCell::default(),
        }
    }

    /// Ends argument reading: a `--key` on the command line that the
    /// binary never asked for (through [`Args::get`], [`Args::value`],
    /// [`Args::flag`] or [`Args::threads`]) is a usage error — the process
    /// names it and exits with code 2 instead of running the experiment
    /// without it. Call once, after the last read and before any work.
    pub fn finish(&self) {
        if let Err(message) = self.try_finish() {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }

    /// [`Args::finish`], returning the usage error instead of exiting.
    fn try_finish(&self) -> Result<(), String> {
        let asked = self.asked.borrow();
        // The smallest, so the message does not depend on hash order.
        let unknown = self
            .values
            .keys()
            .chain(&self.flags)
            .filter(|key| !asked.contains(*key))
            .min();
        match unknown {
            None => Ok(()),
            Some(key) => Err(format!("unknown flag `--{key}`")),
        }
    }

    fn ask(&self, key: &str) {
        self.asked.borrow_mut().insert(key.to_string());
    }

    /// A typed value with a default. A value that is present but does not
    /// parse is a usage error: the process prints a message naming the
    /// flag and the value, and exits with code 2 — it never runs the
    /// experiment at the default instead.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// [`Args::get`], returning the usage error instead of exiting.
    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.ask(key);
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                format!(
                    "invalid value `{raw}` for --{key}: expected {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// The raw string value of `--key value`, if present.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.ask(key);
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.ask(key);
        self.flags.iter().any(|f| f == key)
    }

    /// Worker threads for batched probing and sharded aggregation
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
    }
}

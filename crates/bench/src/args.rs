//! Minimal `--key value` argument parsing for the experiment binaries —
//! keeps the dependency footprint to the sanctioned offline crates.

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
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
        Self { values, flags }
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
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
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
}

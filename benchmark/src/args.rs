//! Command-line arguments of `bench_all`.

use crate::workloads::RUN_SECONDS;
use std::path::PathBuf;

/// Name that selects the `layers` pass where a workload name goes.
pub const LAYERS: &str = "layers";

/// Usage text.
pub const USAGE: &str = "\
bench_all: the wall-clock benchmark of aggcache

  bench_all [--seed S]                 run the whole suite: every workload untraced,
                                       then traced, then the layers pass
  bench_all --aa [--seed S]            run the untraced suite twice, compare against bounds
  bench_all --workload W --trace 0     one workload, end-to-end metrics
  bench_all --workload W --trace 1     one workload, per-layer metrics (traced pass + layers pass)
  bench_all --workload layers          the layers pass alone

options:
  --workload W      paper_fit | paper_mid | fit_t2 | update_mix | spill_restart | cluster4 | layers
  --seed S          seed of the request order and the delta generator (default 2000)
  --seconds N       length of the measured phase on the reference box (default 8)
  --trace 0|1       0: end-to-end metrics, 1: per-layer metrics (default 0)
  --no-layers       with --trace 1: leave the layers pass out
  --smoke           20,000-tuple dataset and the fewest queries the percentiles allow
  --out-dir DIR     where traces and the suite document go (default benchmark/out)
  --scratch-dir DIR where spill directories are created (default: the out dir)
";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload (or [`LAYERS`]); `None` runs the suite.
    pub workload: Option<String>,
    /// Seed of the request order and the delta generator.
    pub seed: u64,
    /// Length of the measured phase on the reference box.
    pub seconds: u64,
    /// Per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Leave the layers pass out of a traced run.
    pub no_layers: bool,
    /// Small dataset, few queries.
    pub smoke: bool,
    /// Run the untraced suite twice and compare.
    pub aa: bool,
    /// Where traces and the suite document go.
    pub out_dir: PathBuf,
    /// Where spill directories are created.
    pub scratch_dir: PathBuf,
    /// Test hook: make the oracle report one mismatch.
    pub inject_mismatch: bool,
    /// Print the `BENCHMARK.json` these tables describe and exit.
    pub emit_benchmark_json: bool,
    /// Print the usage text and exit.
    pub help: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: None,
            seed: 2000,
            seconds: RUN_SECONDS,
            trace: false,
            no_layers: false,
            smoke: false,
            aa: false,
            out_dir: PathBuf::from("benchmark/out"),
            scratch_dir: PathBuf::new(),
            inject_mismatch: false,
            emit_benchmark_json: false,
            help: false,
        };
        let mut scratch_dir = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => out.workload = Some(value()?),
                "--seed" => out.seed = number(&arg, &value()?)?,
                "--seconds" => {
                    out.seconds = number(&arg, &value()?)?;
                    if !(1..=60).contains(&out.seconds) {
                        return Err(format!("--seconds must be 1 to 60, got {}", out.seconds));
                    }
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--out-dir" => out.out_dir = PathBuf::from(value()?),
                "--scratch-dir" => scratch_dir = Some(PathBuf::from(value()?)),
                "--no-layers" => out.no_layers = true,
                "--smoke" => out.smoke = true,
                "--aa" => out.aa = true,
                "--inject-mismatch" => out.inject_mismatch = true,
                "--emit-benchmark-json" => out.emit_benchmark_json = true,
                "--help" | "-h" => out.help = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(w) = &out.workload {
            if w != LAYERS && crate::workloads::spec(w).is_none() {
                return Err(format!("unknown workload {w:?}"));
            }
            if out.aa {
                return Err("--aa runs the whole suite; it takes no --workload".into());
            }
        }
        out.scratch_dir = scratch_dir.unwrap_or_else(|| out.out_dir.clone());
        Ok(out)
    }
}

fn number(flag: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag} takes a whole number, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_s_invocation_parses() {
        let a = parse(&[
            "--workload",
            "paper_mid",
            "--seed",
            "17",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("paper_mid"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 8, true));
        assert_eq!(a.scratch_dir, a.out_dir);
    }

    #[test]
    fn defaults_run_the_suite_at_seed_2000() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workload, None);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.aa),
            (2000, RUN_SECONDS, false, false)
        );
    }

    #[test]
    fn bad_input_is_refused_not_defaulted() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--aa", "--workload", "paper_fit"]).is_err());
        assert!(parse(&["--workload", "layers"]).is_ok());
    }
}

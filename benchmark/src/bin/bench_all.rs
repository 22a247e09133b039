use aggcache_benchmark::args::{Args, USAGE};
use aggcache_benchmark::{driver, report, suite, workloads};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_all: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.emit_benchmark_json {
        let workloads: Vec<_> = workloads::SPECS.iter().map(|s| (s.name, s.why)).collect();
        print!(
            "{}",
            report::benchmark_json(driver::COMMAND, workloads::RUN_SECONDS, &workloads)
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::create_dir_all(&args.scratch_dir))
    {
        eprintln!("bench_all: cannot create the output directories: {e}");
        return ExitCode::from(2);
    }
    let ok = match &args.workload {
        Some(name) => {
            let result = driver::run(name, &args);
            println!("{}", result.to_json());
            result.correct
        }
        None => suite::run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

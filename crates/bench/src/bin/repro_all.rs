//! Runs every table and figure experiment in sequence, printing the full
//! reproduction report (used to populate EXPERIMENTS.md). Exits 1 after
//! the report if any sweep's contract (oracle mismatches) is violated,
//! naming each violation on stderr.
#![forbid(unsafe_code)]
use aggcache_bench::args::Args;
use aggcache_bench::experiments::{
    cluster, faults, recovery, streams, table1, table2, table3, tenants, unit_a, unit_b, updates,
};
use aggcache_bench::rig::DatasetOpts;

fn main() {
    let a = Args::parse();
    let tuples: u64 = a.get("tuples", 1_000_000);
    let queries: usize = a.get("queries", 100);
    let seed: u64 = a.get("seed", 0xA9B1);
    a.finish();

    println!(
        "=== aggcache reproduction: all experiments (tuples={tuples}, queries={queries}) ===\n"
    );

    let dataset = DatasetOpts { tuples, seed };
    println!("{}", table1::run(dataset));
    println!("{}", table2::run(dataset));
    println!("{}", table3::run(dataset));

    // One run of every scheme; the six artefacts are views of it.
    let opts = streams::Opts {
        tuples,
        seed,
        queries,
    };
    let s = streams::run_experiment(opts, &streams::SCHEMES.map(|(label, ..)| label));
    println!("{}", streams::render_fig7(&s));
    println!("{}", streams::render_fig8(&s));
    println!("{}", streams::render_fig9(&s));
    println!("{}", streams::render_fig10(&s));
    println!("{}", streams::render_table4(&s));
    println!("{}", streams::render_ablation(&s));

    println!("{}", unit_a::run(dataset));
    println!(
        "{}",
        unit_b::run(unit_b::Opts {
            seed,
            ..Default::default()
        })
    );

    // The five beyond-paper sweeps, scaled down; each prints its table and
    // keeps its contract's verdict for the exit status.
    let mut violations = Vec::new();
    let mut report = |name: &str, (table, verdict): (String, Result<(), String>)| {
        println!("{table}");
        if let Err(violation) = verdict {
            violations.push(format!("{name}: {violation}"));
        }
    };

    // Availability under backend faults: one stream per fault rate.
    let f = faults::run_experiment(faults::Opts {
        tuples: tuples.min(200_000),
        seed,
        queries,
    });
    report("fig_faults", faults::SWEEP.report(&f));

    // Multi-tenant traffic under the admission lab: one merged stream per
    // cell.
    let t = tenants::run_experiment(tenants::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    report("fig_tenants", tenants::SWEEP.report(&t));

    // The sharded cache tier: one stream per (nodes, replication, failure
    // rate) cell.
    let cl = cluster::run_experiment(cluster::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    report("fig_cluster", cluster::SWEEP.report(&cl));

    // Self-healing storage under injected disk faults: every cell replays
    // warm-up + a faulty restart, and a cold row restarts with no spill
    // tier.
    let rc = recovery::run_experiment(recovery::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    report("fig_recovery", recovery::SWEEP.report(&rc));

    // Base-data deltas propagated up the lattice: one stream per (mix,
    // strategy) cell.
    let up = updates::run_experiment(updates::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    report("fig_updates", updates::SWEEP.report(&up));

    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("error: {violation}");
        }
        std::process::exit(1);
    }
}

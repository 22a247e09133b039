//! Runs every table and figure experiment in sequence, printing the full
//! reproduction report (used to populate EXPERIMENTS.md).
use aggcache_bench::args::Args;
use aggcache_bench::experiments::{
    cluster, coldstart, faults, recovery, streams, table1, table2, table3, tenants, unit_a, unit_b,
    updates,
};

fn main() {
    let a = Args::parse();
    let tuples: u64 = a.get("tuples", 1_000_000);
    let queries: usize = a.get("queries", 100);
    let seed: u64 = a.get("seed", 0xA9B1);
    a.finish();

    println!(
        "=== aggcache reproduction: all experiments (tuples={tuples}, queries={queries}) ===\n"
    );

    println!(
        "{}",
        table1::run(table1::Opts {
            tuples,
            seed,
            ..Default::default()
        })
    );
    println!("{}", table2::run(table2::Opts { tuples, seed }));
    println!("{}", table3::run(table3::Opts { tuples, seed }));

    // One run of all four schemes; the five artefacts are views of it.
    let opts = streams::Opts {
        tuples,
        seed,
        queries,
        ..Default::default()
    };
    let s = streams::run_experiment(opts, &streams::SCHEMES.map(|(label, ..)| label));
    println!("{}", streams::render_fig7(&s));
    println!("{}", streams::render_fig8(&s));
    println!("{}", streams::render_fig9(&s));
    println!("{}", streams::render_fig10(&s));
    println!("{}", streams::render_table4(&s));

    println!(
        "{}",
        unit_a::run(unit_a::Opts {
            tuples,
            seed,
            ..Default::default()
        })
    );
    println!(
        "{}",
        unit_b::run(unit_b::Opts {
            seed,
            ..Default::default()
        })
    );

    // Beyond the paper: availability under backend faults. Scaled down —
    // the sweep runs one stream per fault rate.
    let fault_tuples = tuples.min(200_000);
    let f = faults::run_experiment(faults::Opts {
        tuples: fault_tuples,
        seed,
        queries,
        cache_bytes: faults::Opts::scaled_cache_bytes(fault_tuples),
        ..Default::default()
    });
    println!("{}", faults::render(&f));

    // Beyond the paper: multi-tenant traffic under the admission lab.
    // Scaled down — the sweep runs one merged stream per cell.
    let t = tenants::run_experiment(tenants::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    println!("{}", tenants::render(&t));

    // Beyond the paper: the sharded cache tier. Scaled down — the sweep
    // runs one stream per (nodes, replication, failure rate) cell.
    let cl = cluster::run_experiment(cluster::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    println!("{}", cluster::render(&cl));

    // Beyond the paper: restart behavior with the persistent spill tier.
    // Scaled down — the sweep runs warm-up + two restarts per cell.
    let cs = coldstart::run_experiment(
        coldstart::Opts {
            tuples: tuples.min(60_000),
            seed,
            ..Default::default()
        },
        "repro",
    );
    println!("{}", coldstart::render(&cs));

    // Beyond the paper: self-healing storage under injected disk faults.
    // Scaled down — every cell replays warm-up + a faulty restart.
    let rc = recovery::run_experiment(
        recovery::Opts {
            tuples: tuples.min(60_000),
            seed,
            ..Default::default()
        },
        "repro",
    );
    println!("{}", recovery::render(&rc));

    // Beyond the paper: base-data deltas propagated up the lattice.
    // Scaled down — the sweep runs one stream per (mix, strategy) cell
    // plus the empty-delta transparency check.
    let up = updates::run_experiment(updates::Opts {
        tuples: tuples.min(60_000),
        seed,
        ..Default::default()
    });
    println!("{}", updates::render(&up));
}

//! **Table 2** — count/cost update times for VCM and VCMC while bulk
//! loading level `(6,2,3,1,0)` (the base table) followed by level
//! `(6,2,3,0,0)`.
//!
//! Paper shape: all times small; VCM's updates for the second load are
//! exactly zero-propagation (everything already computable), while VCMC
//! keeps propagating because computation costs change.

use crate::report::{f3, MinMaxAvg, Table};
use crate::rig::{apb_dataset, manager_for};
use aggcache_cache::{Origin, PolicyKind};
use aggcache_chunks::ChunkKey;
use aggcache_core::Strategy;

/// Options for the Table 2 run.
pub use crate::rig::DatasetOpts as Opts;

/// Runs the experiment and renders the report.
pub fn run(opts: Opts) -> String {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let lattice = dataset.grid.schema().lattice().clone();
    let level_a = dataset.fact_gb; // (6,2,3,1,0)
    let level_b = lattice.id_of(&[6, 2, 3, 0, 0]).unwrap();

    let mut out = String::from("Table 2: update times (microseconds per chunk insert)\n\n");
    let mut table = Table::new(&[
        "algorithm",
        "load",
        "min µs",
        "max µs",
        "avg µs",
        "table writes",
    ]);

    for (strategy, name) in [(Strategy::Vcm, "VCM"), (Strategy::Vcmc, "VCMC")] {
        let mut mgr = manager_for(&dataset, strategy, PolicyKind::Benefit, usize::MAX >> 1);
        for (gb, label) in [(level_a, "(6,2,3,1,0)"), (level_b, "(6,2,3,0,0)")] {
            let fetch = mgr.backend().fetch_group_by(gb).expect("computable");
            let writes_before = match strategy {
                Strategy::Vcm => mgr.counts().unwrap().updates(),
                _ => mgr.costs().unwrap().updates(),
            };
            let mut times = MinMaxAvg::default();
            for (chunk, data) in fetch.chunks {
                let (admitted, update_ns) =
                    mgr.insert_chunk(ChunkKey::new(gb, chunk), data, Origin::Backend, 1.0);
                assert!(admitted);
                times.add(update_ns as f64 / 1000.0);
            }
            let writes = match strategy {
                Strategy::Vcm => mgr.counts().unwrap().updates(),
                _ => mgr.costs().unwrap().updates(),
            } - writes_before;
            table.row(vec![
                name.to_string(),
                label.to_string(),
                f3(times.min),
                f3(times.max),
                f3(times.avg()),
                writes.to_string(),
            ]);
        }
    }

    out.push_str(&table.render());
    out.push_str(
        "\nPaper shape: VCM loading (6,2,3,0,0) does not propagate (chunks\n\
         already computable; writes = chunk count only); VCMC keeps\n\
         propagating because descendant costs change.\n",
    );
    out
}

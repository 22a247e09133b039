//! Tracing must never perturb virtual time. Every table-4/fig-7…10 number
//! is derived from [`run_stream`] results, so a traced run has to be
//! **bit-identical** (`f64::to_bits`) to an untraced run of the same
//! configuration — across strategies, policies and cache budgets.

use aggcache_bench::rig::{apb_dataset, backend_for};
use aggcache_bench::stream::{run_stream, StreamRun};
use aggcache_bench::trace::TraceSink;
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;

#[test]
fn traced_streams_are_bit_identical_to_untraced() {
    let dataset = apb_dataset(8_000, 11);
    // One configuration per experiment family: the fig-9/10 comparison
    // schemes, both fig-7/8 policies, and a heavy-eviction budget.
    let configs = [
        (Strategy::NoAggregation, PolicyKind::Benefit, 256 * 1024),
        (Strategy::Vcmc, PolicyKind::Benefit, 128 * 1024),
        (Strategy::Vcmc, PolicyKind::TwoLevel, 128 * 1024),
        (Strategy::Vcm, PolicyKind::TwoLevel, 48 * 1024),
    ];
    for (strategy, policy, cache_bytes) in configs {
        let run = StreamRun {
            queries: 30,
            ..StreamRun::paper(strategy, policy, cache_bytes)
        };
        let plain = run_stream(&dataset, backend_for(&dataset), run, None);
        let sink = TraceSink::new();
        let traced = run_stream(&dataset, backend_for(&dataset), run, Some(sink.tracer()));
        let ctx = format!("{strategy:?}/{policy:?}/{cache_bytes}");
        assert!(sink.events_recorded() > 0, "{ctx}: tracer saw no events");

        let pairs = [
            (
                "complete_hit_pct",
                plain.complete_hit_pct,
                traced.complete_hit_pct,
            ),
            ("avg_ms", plain.avg_ms, traced.avg_ms),
            ("hit_total_ms", plain.hit_total_ms, traced.hit_total_ms),
            (
                "hit_lookup_min",
                plain.hit_lookup_ms.min,
                traced.hit_lookup_ms.min,
            ),
            (
                "hit_lookup_max",
                plain.hit_lookup_ms.max,
                traced.hit_lookup_ms.max,
            ),
            (
                "hit_lookup_avg",
                plain.hit_lookup_ms.avg(),
                traced.hit_lookup_ms.avg(),
            ),
            (
                "hit_agg_avg",
                plain.hit_agg_ms.avg(),
                traced.hit_agg_ms.avg(),
            ),
            (
                "hit_update_avg",
                plain.hit_update_ms.avg(),
                traced.hit_update_ms.avg(),
            ),
        ];
        for (name, a, b) in pairs {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {name} {a} vs {b}");
        }
        assert_eq!(plain.tuples_aggregated, traced.tuples_aggregated, "{ctx}");
        assert_eq!(plain.backend_tuples, traced.backend_tuples, "{ctx}");
        assert_eq!(
            plain.preload.map(|p| (p.gb, p.chunks, p.bytes)),
            traced.preload.map(|p| (p.gb, p.chunks, p.bytes)),
            "{ctx}"
        );
    }
}

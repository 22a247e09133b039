//! Plain-text table rendering and outcome tallies for experiment reports.

use aggcache_core::ExecOutcome;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// `sum / n`, or 0 when nothing was counted — every ratio and average a
/// report prints goes through this one guard.
pub(crate) fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The nearest-rank `q`-quantile of `values`, which it sorts in place:
/// the `⌈q·n⌉`-th smallest value (the smallest when `q·n ≤ 1`), or 0 when
/// `values` is empty.
pub(crate) fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (values.len() as f64 * q).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// What a sweep cell reports about the stream it ran: outcomes folded in
/// arrival order, so every sum is the same bits as a loop over them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Queries answered.
    pub(crate) queries: u64,
    /// Queries answered entirely from the cache.
    pub(crate) complete_hits: u64,
    /// Chunk demands served without a backend fetch (hit or computed).
    pub(crate) chunks_served: u64,
    /// Chunk demands that missed.
    pub(crate) chunks_missed: u64,
    /// Σ [`ExecOutcome::total_virtual_ms`] — work, spill and wire included.
    pub(crate) total_virtual_ms: f64,
    /// Σ virtual milliseconds charged by the backend.
    pub(crate) backend_virtual_ms: f64,
}

impl Tally {
    /// Folds in one answered query.
    pub(crate) fn add(&mut self, out: &ExecOutcome) {
        let m = &out.metrics;
        self.queries += 1;
        self.complete_hits += u64::from(m.complete_hit);
        self.chunks_served += (m.chunks_hit + m.chunks_computed) as u64;
        self.chunks_missed += m.chunks_missed as u64;
        self.total_virtual_ms += out.total_virtual_ms();
        self.backend_virtual_ms += m.backend_virtual_ms;
    }

    /// Folds in another tally: every field sums.
    pub(crate) fn merge(&mut self, other: &Tally) {
        // Exhaustive on purpose: a new field must decide how it merges.
        let Tally {
            queries,
            complete_hits,
            chunks_served,
            chunks_missed,
            total_virtual_ms,
            backend_virtual_ms,
        } = *other;
        self.queries += queries;
        self.complete_hits += complete_hits;
        self.chunks_served += chunks_served;
        self.chunks_missed += chunks_missed;
        self.total_virtual_ms += total_virtual_ms;
        self.backend_virtual_ms += backend_virtual_ms;
    }

    /// Fraction of queries answered entirely from the cache.
    pub(crate) fn hit_ratio(&self) -> f64 {
        mean(self.complete_hits as f64, self.queries)
    }

    /// Fraction of chunk demands served without a backend fetch.
    pub(crate) fn chunk_hit_ratio(&self) -> f64 {
        mean(
            self.chunks_served as f64,
            self.chunks_served + self.chunks_missed,
        )
    }
}

/// Min/max/average accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMaxAvg {
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    sum: f64,
    n: u64,
}

impl MinMaxAvg {
    /// Folds in one observation.
    pub(crate) fn add(&mut self, v: f64) {
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.n += 1;
    }

    /// The mean of the observations (0 when empty).
    pub fn avg(&self) -> f64 {
        mean(self.sum, self.n)
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_cache::PolicyKind;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "23".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with(" 1"));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&mut [], 0.95), 0.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&mut unsorted, 0.5), 2.0);
        assert_eq!(quantile(&mut unsorted, 0.0), 1.0);
        assert_eq!(quantile(&mut unsorted, 1.0), 3.0);
        let mut ranks: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // ⌈0.95 · 20⌉ = 19 and ⌈0.99 · 20⌉ = 20.
        assert_eq!(quantile(&mut ranks, 0.95), 19.0);
        assert_eq!(quantile(&mut ranks, 0.99), 20.0);
    }

    #[test]
    fn tally_is_zero_guarded_and_sums_in_arrival_order() {
        use crate::rig::{apb_dataset, manager_for, paper_stream, MB};
        use aggcache_core::QueryRequest;

        let empty = Tally::default();
        assert_eq!((empty.hit_ratio(), empty.chunk_hit_ratio()), (0.0, 0.0));
        assert_eq!(mean(3.0, 0), 0.0);

        let dataset = apb_dataset(3_000, 7);
        let (strategy, policy) = (aggcache_core::Strategy::Vcmc, PolicyKind::TwoLevel);
        let mut mgr = manager_for(&dataset, strategy, policy, MB / 50);
        let requests = QueryRequest::batch(&paper_stream(&dataset, 11).take_queries(50));
        let outs = mgr.run_batch(&requests).unwrap();
        // The hand loops `Tally` replaced, term for term.
        let mut tally = Tally::default();
        let (mut hits, mut served, mut missed) = (0usize, 0u64, 0u64);
        let (mut total_ms, mut backend_ms) = (0.0f64, 0.0f64);
        for o in &outs {
            tally.add(o);
            hits += usize::from(o.metrics.complete_hit);
            served += (o.metrics.chunks_hit + o.metrics.chunks_computed) as u64;
            missed += o.metrics.chunks_missed as u64;
            total_ms += o.total_virtual_ms();
            backend_ms += o.metrics.backend_virtual_ms;
        }
        assert!(missed > 0 && hits > 0, "the stream exercises both outcomes");
        let bits = f64::to_bits;
        assert_eq!(bits(tally.total_virtual_ms), bits(total_ms));
        assert_eq!(bits(tally.backend_virtual_ms), bits(backend_ms));
        assert_eq!(tally.hit_ratio(), hits as f64 / outs.len() as f64);
        assert_eq!(
            tally.chunk_hit_ratio(),
            served as f64 / (served + missed) as f64
        );
    }

    #[test]
    fn merge_sums_every_field_of_per_tenant_tallies() {
        use crate::rig::{apb_dataset, manager_for, MB};
        use aggcache_workload::{MultiTenantConfig, TrafficEngine};
        use std::collections::BTreeMap;

        let dataset = apb_dataset(3_000, 7);
        let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
        let cfg = MultiTenantConfig::contended(4, 0.0, max_level, 11);
        let requests = TrafficEngine::new(dataset.grid.clone(), &cfg)
            .unwrap()
            .requests(80);
        let (strategy, policy) = (aggcache_core::Strategy::Vcmc, PolicyKind::TwoLevel);
        let mut mgr = manager_for(&dataset, strategy, policy, MB / 50);
        let outs = mgr.run_batch(&requests).unwrap();
        let mut by_tenant: BTreeMap<u32, Tally> = BTreeMap::new();
        let mut all = Tally::default();
        for (request, out) in requests.iter().zip(&outs) {
            by_tenant.entry(request.tenant).or_default().add(out);
            all.add(out);
        }
        assert_eq!(by_tenant.len(), 4);
        assert!(all.complete_hits > 0 && all.chunks_missed > 0);
        let counts = |t: &Tally| (t.queries, t.complete_hits, t.chunks_served, t.chunks_missed);
        let bits = |t: &Tally| {
            let ms = (t.total_virtual_ms.to_bits(), t.backend_virtual_ms.to_bits());
            (counts(t), ms)
        };
        // Merged in arrival order, one-outcome tallies are `add` bit for bit.
        let mut merged = Tally::default();
        for out in &outs {
            let mut one = Tally::default();
            one.add(out);
            merged.merge(&one);
        }
        assert_eq!(bits(&merged), bits(&all));
        // Merged per tenant, every count is exact; the sums are regrouped,
        // so they may move in the last bits (a cell sums per tenant).
        let mut merged = Tally::default();
        by_tenant.values().for_each(|t| merged.merge(t));
        assert_eq!(counts(&merged), counts(&all));
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert!(close(merged.total_virtual_ms, all.total_virtual_ms));
        assert!(close(merged.backend_virtual_ms, all.backend_virtual_ms));
    }

    #[test]
    fn min_max_avg() {
        let mut m = MinMaxAvg::default();
        for v in [3.0, 1.0, 2.0] {
            m.add(v);
        }
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 3.0);
        assert!((m.avg() - 2.0).abs() < 1e-12);
        assert_eq!(m.count(), 3);
    }
}

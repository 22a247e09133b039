//! The message-cost model for remote chunk traffic.
//!
//! The cluster tier ships probes and chunk payloads between simulated
//! nodes; like backend fetches, that traffic is charged to the
//! deterministic virtual clock — a per-hop round-trip latency plus a
//! per-byte transfer cost. The model lives next to [`crate::BackendCostModel`]
//! because the two are calibrated against each other: cooperative lookup
//! only pays when a two-hop transfer undercuts a backend scan. That is also
//! why its rates are constants — a cost-based cache is only coherent when
//! every cost is priced in one unit against the others.

/// Virtual cost of inter-node messages: per-hop latency plus per-byte
/// transfer time.
///
/// A *hop* is one request/response round trip between two nodes. Costs are
/// virtual milliseconds / microseconds, in the same deterministic domain
/// as [`crate::BackendCostModel`] — never wall clock. The rates are tuned
/// against [`crate::BackendCostModel::default`]'s ≈4 µs/tuple scan: a
/// 0.5 ms round trip plus 0.02 µs/byte (≈0.4 µs per 20-byte accounting
/// tuple) keeps a peer serve roughly an order of magnitude cheaper than
/// re-scanning the backend, mirroring the paper's in-cache-aggregation
/// advantage.
#[derive(Debug, Clone, Copy)]
pub struct MessageCostModel;

impl MessageCostModel {
    /// Virtual milliseconds per request/response round trip.
    pub(crate) const PER_HOP_MS: f64 = 0.5;
    /// Virtual microseconds per payload byte shipped.
    pub(crate) const PER_BYTE_US: f64 = 0.02;

    /// Virtual milliseconds for one round trip carrying `bytes` of payload.
    pub fn transfer_ms(bytes: u64) -> f64 {
        Self::PER_HOP_MS + bytes as f64 * Self::PER_BYTE_US / 1000.0
    }

    /// Virtual milliseconds for a payload-less round trip (a probe).
    pub fn probe_ms() -> f64 {
        Self::PER_HOP_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_charges_hop_plus_bytes() {
        assert_eq!(MessageCostModel::probe_ms(), 0.5);
        assert_eq!(MessageCostModel::transfer_ms(0), 0.5);
        assert!((MessageCostModel::transfer_ms(50_000) - 1.5).abs() < 1e-12);
    }
}

//! The mid-tier chunk cache with benefit-based replacement (paper §6).
//!
//! Two replacement policies are provided:
//!
//! * [`PolicyKind::Benefit`] — the plain benefit-weighted CLOCK of
//!   \[DRSN98\]: each chunk's clock is seeded from its benefit (its cost of
//!   (re)computation), approximating benefit-weighted LRU.
//! * [`PolicyKind::TwoLevel`] — the paper's two-level policy: chunks
//!   fetched from the backend outrank cache-computed chunks (a computed
//!   chunk can never evict a backend chunk), groups of chunks used together
//!   to compute an aggregate get their clocks boosted by the computed
//!   chunk's benefit, and the cache can be pre-loaded with a group-by.
//!
//! The cache is byte-budgeted using the paper's accounting convention of
//! 20 bytes per tuple ([`aggcache_chunks::PAPER_TUPLE_BYTES`]), so cache
//! sizes like "10 MB" are comparable to the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod cache;
mod clock;

pub use admission::{AdmissionKind, CountMinSketch};
pub use cache::{CachedChunk, ChunkCache, InsertOutcome, Origin, PolicyKind};
pub use clock::ClockRing;

//! The persistent second-tier chunk store: chunks evicted from RAM are
//! *demoted* to disk instead of destroyed, and promoted back on demand.
//!
//! The on-disk representation is `SpillFormat` v5 — a versioned,
//! length-prefixed, checksummed serialization of one columnar
//! [`ChunkData`] per record, laid out as RAM holds it (each column stored
//! or held once, the stored block and the values at the narrowest widths
//! that hold them), records appended back to back to segment files,
//! specified byte-for-byte in `docs/FORMAT.md` (the normative spec; the
//! golden-file tests in `tests/spill.rs` fail if the bytes drift from
//! it). Alongside the segments, [`SpillStore`]
//! persists a small index (`spill.idx`) recording where each record lies,
//! what its read is priced at, and which chunks were RAM-resident at the
//! last checkpoint, so a restarted cache manager can warm-start with
//! exactly the chunk population it shut down with.
//!
//! Disk traffic is charged to the same deterministic virtual clock as
//! backend fetches, through [`SpillCostModel`], into one ledger:
//! [`SpillMetrics`]. Every store operation that costs virtual time or
//! finds damage hands back its own `SpillMetrics` delta, which the cache
//! manager folds into its per-query and session ledgers.

use crate::io::{DiskFaultProfile, FaultInjectingSpillIo, FsSpillIo, SpillIo};
use crate::retry::RetryPolicy;
use aggcache_chunks::{Buf, ChunkData, ChunkGrid, ChunkKey, Column, Held, Wide};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Magic bytes opening every `SpillFormat` record (`b"ACSP"`).
pub const SPILL_MAGIC: [u8; 4] = *b"ACSP";
/// Magic bytes opening the spill index file (`b"ACSI"`).
pub const SPILL_INDEX_MAGIC: [u8; 4] = *b"ACSI";
/// The `SpillFormat` version this build writes and reads.
pub const SPILL_FORMAT_VERSION: u16 = 5;
/// Fixed byte length of the record header (everything before the
/// coordinate block's length prefix).
pub const SPILL_HEADER_BYTES: usize = 32;
/// Origin code for a backend-fetched chunk (see `docs/FORMAT.md`).
pub const ORIGIN_BACKEND: u8 = 0;
/// Origin code for a chunk computed by in-cache aggregation.
pub const ORIGIN_COMPUTED: u8 = 1;
/// Origin code for a chunk that re-entered RAM from the spill tier.
pub const ORIGIN_SPILLED: u8 = 2;

/// The record flag of a tombstone: a record with no cells that retires
/// every earlier record of its key from an index scavenge.
const FLAG_TOMBSTONE: u16 = 1;
/// The record flag of `u32` stored coordinates; without it they are `u16`.
const FLAG_WIDE_COORDS: u16 = 2;
/// The record flag of `f64` values; without it they are `u16`.
const FLAG_WIDE_VALUES: u16 = 4;
/// The column-table tag of a dimension the coordinate block stores.
const COLUMN_STORED: u8 = 0;
/// The column-table tag of a dimension every cell holds at the entry's
/// `u32`.
const COLUMN_CONSTANT: u8 = 1;
/// Bytes of one column-table entry: its tag, then a `u32`.
const COLUMN_BYTES: usize = 5;
/// A segment grown to this many bytes is sealed: the next append starts
/// a new one.
const SEGMENT_BYTES: u64 = 8 << 20;
const INDEX_ENTRY_BYTES: usize = 32;
const INDEX_HEADER_BYTES: usize = 12;
const INDEX_FILE: &str = "spill.idx";

/// Errors from the spill tier: I/O failures, malformed or corrupt records,
/// and invalid configuration.
///
/// [`SpillError::is_corruption`] classifies the variants that trigger
/// quarantine-and-refetch recovery; `SpillError::is_retryable` the ones
/// worth re-attempting under a [`RetryPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpillError {
    /// An operating-system I/O failure (message includes the operation).
    Io {
        /// The operation that failed (`"create dir"`, `"append"`, …).
        op: &'static str,
        /// The OS error rendered as text.
        error: String,
    },
    /// The record does not open with [`SPILL_MAGIC`] (or the index with
    /// [`SPILL_INDEX_MAGIC`]).
    BadMagic,
    /// The record's format version is not readable by this build.
    BadVersion {
        /// The version found on disk.
        found: u16,
    },
    /// A structural violation: truncated buffer, length prefix mismatch,
    /// a key that disagrees with the index, or an index entry naming
    /// bytes its segment does not hold.
    Corrupt {
        /// What was violated.
        reason: &'static str,
    },
    /// The trailing checksum does not match the record bytes.
    BadChecksum,
    /// The disk is out of space (the injector's ENOSPC-after-N-bytes
    /// budget is exhausted). A failed demotion degrades to a plain
    /// eviction; a failed checkpoint record is skipped and counted.
    NoSpace,
    /// A transient read error — the only retryable variant; re-attempted
    /// under the store's [`RetryPolicy`] before surfacing.
    TransientRead {
        /// The read operation's sequence number (diagnostic).
        seq: u64,
    },
    /// An operation that needs a spill tier was called on a manager
    /// without one attached.
    NotAttached,
    /// A [`DiskFaultProfile`] rate is not a probability in [0, 1].
    BadRate {
        /// The offending field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The scrub interval is not finite and positive.
    BadScrubInterval {
        /// The offending value.
        value: f64,
    },
}

impl SpillError {
    /// Whether this error means the on-disk record is damaged (bad magic,
    /// unreadable version, structural violation, checksum mismatch) — the
    /// class that triggers quarantine-and-refetch recovery rather than
    /// propagation.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            Self::BadMagic | Self::BadVersion { .. } | Self::Corrupt { .. } | Self::BadChecksum
        )
    }

    /// Whether a re-attempt can succeed (only transient read errors).
    pub(crate) fn is_retryable(&self) -> bool {
        matches!(self, Self::TransientRead { .. })
    }

    /// A short stable class name for observability events.
    pub fn class_name(&self) -> &'static str {
        match self {
            Self::Io { .. } => "io",
            Self::BadMagic => "bad_magic",
            Self::BadVersion { .. } => "bad_version",
            Self::Corrupt { .. } => "corrupt",
            Self::BadChecksum => "bad_checksum",
            Self::NoSpace => "no_space",
            Self::TransientRead { .. } => "transient_read",
            Self::NotAttached => "not_attached",
            Self::BadRate { .. } => "bad_rate",
            Self::BadScrubInterval { .. } => "bad_scrub_interval",
        }
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { op, error } => write!(f, "spill {op}: {error}"),
            Self::BadMagic => write!(f, "spill record: bad magic"),
            Self::BadVersion { found } => {
                write!(
                    f,
                    "spill record: format version {found} (this build reads {SPILL_FORMAT_VERSION})"
                )
            }
            Self::Corrupt { reason } => write!(f, "spill record corrupt: {reason}"),
            Self::BadChecksum => write!(f, "spill record: checksum mismatch"),
            Self::NoSpace => write!(f, "spill write: no space left on device"),
            Self::TransientRead { seq } => {
                write!(f, "spill read: transient error (read op {seq})")
            }
            Self::NotAttached => write!(f, "no spill tier attached"),
            Self::BadRate { field, value } => {
                write!(
                    f,
                    "disk fault profile: {field} = {value} must be a probability in [0, 1]"
                )
            }
            Self::BadScrubInterval { value } => {
                write!(f, "spill scrub interval {value} must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// The `SpillFormat` checksum of `bytes` (no dependencies, byte-order
/// independent, specified in `docs/FORMAT.md`): their little-endian `u64`
/// words dealt round-robin to four FNV-1a 64 lanes, word `i` to lane
/// `i mod 4`, the four lane hashes then folded in order into a fifth, and
/// the 0–7 tail bytes folded into that one at a time. The lanes are
/// independent chains, so they run side by side. Each step is a
/// bijection of the hash it updates, so a change to any one byte always
/// changes the result.
pub fn spill_checksum(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |hash: u64, x: u64| (hash ^ x).wrapping_mul(PRIME);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
    let mut lanes = [BASIS; 4];
    let blocks = bytes.chunks_exact(32);
    let words = blocks.remainder().chunks_exact(8);
    let tail = words.remainder();
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(words) {
        *lane = step(*lane, word(w));
    }
    let folded = lanes.into_iter().fold(BASIS, step);
    tail.iter().map(|&b| u64::from(b)).fold(folded, step)
}

/// Virtual cost of spill-tier disk traffic: a per-operation seek/dispatch
/// latency plus a per-byte transfer rate, for writes (demotions,
/// checkpoints) and reads (promotions, warm starts) separately.
///
/// Costs are deterministic virtual milliseconds / microseconds in the same
/// domain as [`crate::BackendCostModel`] — never wall clock. The rates are
/// constants because they only mean something against that model. They
/// price the *logical* record, `SpillCostModel::record_bytes`: `u32`
/// coordinates and `f64` values, 28 bytes a tuple on APB-1's five
/// dimensions, whatever widths the record is written at. A promotion read
/// of such a tuple costs ≈1.4 µs, about 3× cheaper than the backend's
/// ≈4 µs/tuple scan, so the disk tier pays off exactly when it spares a
/// backend round trip.
#[derive(Debug, Clone, Copy)]
pub struct SpillCostModel;

impl SpillCostModel {
    /// Virtual milliseconds per write operation (seek + dispatch).
    pub(crate) const WRITE_PER_OP_MS: f64 = 0.2;
    /// Virtual microseconds per byte written.
    pub(crate) const WRITE_PER_BYTE_US: f64 = 0.05;
    /// Virtual milliseconds per read operation (seek + dispatch).
    pub(crate) const READ_PER_OP_MS: f64 = 0.2;
    /// Virtual microseconds per byte read.
    pub(crate) const READ_PER_BYTE_US: f64 = 0.05;

    /// The bytes a record of `n_cells` cells of `n_dims` coordinates is
    /// priced at: its length with `u32` coordinates and `f64` values,
    /// `48 + n_cells × (4·n_dims + 8)` (`docs/FORMAT.md`), the length every
    /// record had before records kept their chunk's widths.
    pub(crate) fn record_bytes(n_dims: usize, n_cells: usize) -> u64 {
        let (n_dims, n_cells) = (n_dims as u64, n_cells as u64);
        SPILL_HEADER_BYTES as u64 + 16 + n_cells * (4 * n_dims + 8)
    }

    /// Virtual milliseconds for one write of `bytes`.
    pub fn write_ms(bytes: u64) -> f64 {
        Self::WRITE_PER_OP_MS + bytes as f64 * Self::WRITE_PER_BYTE_US / 1000.0
    }

    /// Virtual milliseconds for one read of `bytes`.
    pub fn read_ms(bytes: u64) -> f64 {
        Self::READ_PER_OP_MS + bytes as f64 * Self::READ_PER_BYTE_US / 1000.0
    }

    /// Virtual milliseconds for a checkpoint of `chunks` records totalling
    /// `bytes`: one per-op charge per chunk plus the byte rate over the
    /// total.
    pub(crate) fn checkpoint_ms(chunks: u64, bytes: u64) -> f64 {
        chunks as f64 * Self::WRITE_PER_OP_MS + bytes as f64 * Self::WRITE_PER_BYTE_US / 1000.0
    }
}

/// Spill-tier accounting: demotions written, promotions read from disk,
/// damage found and repaired, with their virtual cost under
/// [`SpillCostModel`]. It is the only type the spill tier reports in: every
/// [`SpillStore`] operation that costs virtual time or finds damage hands
/// back one of these as a delta, and the cache manager folds the deltas
/// into one per request and one per session.
///
/// All zeros when no spill tier is attached — which is what keeps the
/// spill-disabled pipeline bit-identical to every pre-spill figure.
/// Deliberately kept *outside* the cache manager's `QueryMetrics`, like
/// the cluster tier's `RemoteMetrics`: a query's `total_ms` remains the sum
/// of its four local virtual components (an invariant `trace_check`
/// enforces), and the end-to-end time including disk traffic is
/// `ExecOutcome::total_virtual_ms`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpillMetrics {
    /// Chunks written to disk: demotions, and checkpointed residents.
    pub spill_writes: u64,
    /// Chunks read back from the spill tier (promotions and warm starts).
    pub spill_reads: u64,
    /// Read-back chunks the RAM cache re-admitted.
    pub spill_promotes: u64,
    /// Serialized bytes written to disk, at the records' own widths.
    pub bytes_written: u64,
    /// Serialized bytes read from disk, at the records' own widths.
    pub bytes_read: u64,
    /// Records found corrupt (checksum/decode failure) on any spill path.
    pub spill_corrupt: u64,
    /// Records quarantined (dropped from the index; the bytes stay dead
    /// in their segment until a compaction).
    pub spill_quarantined: u64,
    /// Transient-read re-attempts spent under the retry policy.
    pub spill_retries: u64,
    /// Writes that failed: demotions degraded to a plain eviction, and
    /// checkpoint records skipped.
    pub demote_failures: u64,
    /// Index scavenges performed (a missing/corrupt `spill.idx` rebuilt
    /// by scanning the segments at open).
    pub index_rebuilds: u64,
    /// Proactive scrub passes completed.
    pub scrub_passes: u64,
    /// Virtual milliseconds charged by the spill cost model (including
    /// retries, backoff and scrub passes).
    pub spill_virtual_ms: f64,
}

impl SpillMetrics {
    /// Folds another delta into this one.
    pub fn merge(&mut self, other: &SpillMetrics) {
        self.spill_writes += other.spill_writes;
        self.spill_reads += other.spill_reads;
        self.spill_promotes += other.spill_promotes;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.spill_corrupt += other.spill_corrupt;
        self.spill_quarantined += other.spill_quarantined;
        self.spill_retries += other.spill_retries;
        self.demote_failures += other.demote_failures;
        self.index_rebuilds += other.index_rebuilds;
        self.scrub_passes += other.scrub_passes;
        self.spill_virtual_ms += other.spill_virtual_ms;
    }
}

/// Configuration of a [`SpillStore`]: the spill directory plus the two
/// robustness knobs the recovery sweep varies — an optional
/// [`DiskFaultProfile`] (fault injection for chaos testing) and an optional
/// virtual-time scrub interval. Disk traffic is priced by
/// [`SpillCostModel`], and transient read errors retry under
/// [`RetryPolicy::default`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the segments and the index (created if absent).
    pub(crate) dir: PathBuf,
    /// Optional deterministic disk-fault injection; `None` (the default)
    /// uses the plain filesystem backend, and `Some(Default::default())`
    /// is bit-transparent to it.
    pub(crate) fault: Option<DiskFaultProfile>,
    /// When set, a proactive scrub pass verifies every stored checksum
    /// each time this much query virtual time elapses; `None` (the
    /// default) disables scrubbing.
    pub(crate) scrub_interval_ms: Option<f64>,
}

impl SpillConfig {
    /// A configuration over `dir` with no fault injection and no
    /// scrubbing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fault: None,
            scrub_interval_ms: None,
        }
    }

    /// Enables deterministic disk-fault injection.
    pub fn fault(mut self, profile: DiskFaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Enables proactive scrubbing every `interval_ms` of query virtual
    /// time.
    pub fn scrub_interval_ms(mut self, interval_ms: f64) -> Self {
        self.scrub_interval_ms = Some(interval_ms);
        self
    }

    /// Validates every knob (the directory is validated on open).
    pub(crate) fn validate(&self) -> Result<(), SpillError> {
        if let Some(profile) = &self.fault {
            profile.validate()?;
        }
        if let Some(interval) = self.scrub_interval_ms {
            if !interval.is_finite() || interval <= 0.0 {
                return Err(SpillError::BadScrubInterval { value: interval });
            }
        }
        Ok(())
    }
}

/// One decoded `SpillFormat` record: the chunk plus its replacement
/// metadata, exactly as serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecord {
    /// The chunk's key.
    pub key: ChunkKey,
    /// Origin code ([`ORIGIN_BACKEND`] / [`ORIGIN_COMPUTED`] /
    /// [`ORIGIN_SPILLED`]).
    pub origin: u8,
    /// The replacement benefit the chunk carried when demoted.
    pub benefit: f64,
    /// The chunk's cells.
    pub data: ChunkData,
}

/// Serializes one chunk as a `SpillFormat` record — the byte-level
/// layout is specified normatively in `docs/FORMAT.md`. The encoding is a
/// pure function of its inputs (no timestamps, no platform state), so
/// records are bit-identical across runs and machines. A record holds the
/// chunk's layout as it is — each column stored or held once — with the
/// stored block and the values at the narrowest widths that hold them: a
/// block held wider than its cells need is written narrow.
pub fn encode_record(key: ChunkKey, origin: u8, benefit: f64, data: &ChunkData) -> Vec<u8> {
    encode(key, 0, origin, benefit, data)
}

/// The tombstone of `key`: a record flagged [`FLAG_TOMBSTONE`], no cells.
fn encode_tombstone(key: ChunkKey) -> Vec<u8> {
    encode(key, FLAG_TOMBSTONE, 0, 0.0, &ChunkData::new(0))
}

/// A number a record's block holds, little-endian at its own width.
trait Le: Copy {
    /// Its bytes.
    type Bytes: Copy;
    /// `block` as consecutive numbers' bytes (a tail too short for one
    /// is left out).
    fn words(block: &[u8]) -> &[Self::Bytes];
    fn words_mut(block: &mut [u8]) -> &mut [Self::Bytes];
    fn to_le(self) -> Self::Bytes;
    fn from_le(bytes: Self::Bytes) -> Self;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            type Bytes = [u8; std::mem::size_of::<$t>()];
            fn words(block: &[u8]) -> &[Self::Bytes] {
                block.as_chunks().0
            }
            fn words_mut(block: &mut [u8]) -> &mut [Self::Bytes] {
                block.as_chunks_mut().0
            }
            #[inline(always)]
            fn to_le(self) -> Self::Bytes {
                self.to_le_bytes()
            }
            #[inline(always)]
            fn from_le(bytes: Self::Bytes) -> Self {
                Self::from_le_bytes(bytes)
            }
        }
    )*};
}

le!(u16, u32, f64);

/// Writes `items` into `block`, one number's bytes each.
fn put<T: Le>(items: impl Iterator<Item = T>, block: &mut [u8]) {
    for (to, x) in T::words_mut(block).iter_mut().zip(items) {
        *to = x.to_le();
    }
}

/// Reads `block` as consecutive `T`s.
fn get<T: Le>(block: &[u8]) -> Vec<T> {
    T::words(block).iter().map(|&w| T::from_le(w)).collect()
}

/// Appends `held` as a block, its byte length first: at `W` if `wide`,
/// else at `u16`, which then holds every entry — a straight copy from a
/// view at that width, narrowed from one held wider than it needs.
fn put_block<W: Wide + Le>(out: &mut Vec<u8>, held: Held<'_, W>, wide: bool) {
    let bytes = held.len() * if wide { std::mem::size_of::<W>() } else { 2 };
    out.extend_from_slice(&(bytes as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + bytes, 0);
    let block = &mut out[at..];
    match held {
        Held::U16(v) => put(v.iter().copied(), block),
        Held::Wide(v) if wide => put(v.iter().copied(), block),
        Held::Wide(v) => put(v.iter().map(|w| w.narrow().unwrap_or(0)), block),
    }
}

/// `block` held as the record lays it out, at `W` if `wide`, else at
/// `u16`: a straight copy.
fn get_block<W: Wide + Le>(block: &[u8], wide: bool) -> Buf<W> {
    if wide {
        Buf::Wide(get(block))
    } else {
        Buf::U16(get(block))
    }
}

/// The coordinate and value widths, in bytes, that a record's `flags`
/// name.
fn widths(flags: u16) -> (usize, usize) {
    let coord = if flags & FLAG_WIDE_COORDS != 0 { 4 } else { 2 };
    let value = if flags & FLAG_WIDE_VALUES != 0 { 8 } else { 2 };
    (coord, value)
}

/// A record of `data` under `key` with `flags` and, per block, the wide
/// flag when an entry of it does not fit `u16`.
fn encode(key: ChunkKey, flags: u16, origin: u8, benefit: f64, data: &ChunkData) -> Vec<u8> {
    let (coords, values) = (data.stored_coords(), data.raw_values());
    let (wide_coords, wide_values) = (!coords.fits_u16(), !values.fits_u16());
    let flags = flags
        | if wide_coords { FLAG_WIDE_COORDS } else { 0 }
        | if wide_values { FLAG_WIDE_VALUES } else { 0 };
    let (coord_width, value_width) = widths(flags);
    let n_dims = data.n_dims();
    let n_cells = data.len();
    let coord_bytes = n_cells * data.stride() * coord_width;
    let value_bytes = n_cells * value_width;
    let len = SPILL_HEADER_BYTES + n_dims * COLUMN_BYTES + 8 + coord_bytes + value_bytes + 8;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&SPILL_MAGIC);
    out.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&key.pack().to_le_bytes());
    out.push(origin);
    out.push(0); // reserved, must be 0
    out.extend_from_slice(&(n_dims as u16).to_le_bytes());
    out.extend_from_slice(&(n_cells as u32).to_le_bytes());
    out.extend_from_slice(&benefit.to_bits().to_le_bytes());
    debug_assert_eq!(out.len(), SPILL_HEADER_BYTES);
    for &column in data.columns() {
        let (tag, c) = match column {
            Column::Stored(_) => (COLUMN_STORED, 0),
            Column::Constant(c) => (COLUMN_CONSTANT, c),
        };
        out.push(tag);
        out.extend_from_slice(&c.to_le_bytes());
    }
    put_block(&mut out, coords, wide_coords);
    put_block(&mut out, values, wide_values);
    let checksum = spill_checksum(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.len(), len);
    out
}

/// Checks what every checksummed `SpillFormat` object — a record, the
/// index — opens and ends with: at least `min_len` bytes, `magic`, this
/// build's version and the trailing checksum. Returns the checked body.
fn checked_body(bytes: &[u8], magic: [u8; 4], min_len: usize) -> Result<&[u8], SpillError> {
    if bytes.len() < min_len {
        return Err(SpillError::Corrupt {
            reason: "shorter than its header and checksum",
        });
    }
    if bytes[0..4] != magic {
        return Err(SpillError::BadMagic);
    }
    let version = u16::from_le_bytes(take::<2>(bytes, 4)?);
    if version != SPILL_FORMAT_VERSION {
        return Err(SpillError::BadVersion { found: version });
    }
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    if spill_checksum(body).to_le_bytes() != stored {
        return Err(SpillError::BadChecksum);
    }
    Ok(body)
}

fn take<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SpillError> {
    bytes
        .get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(SpillError::Corrupt {
            reason: "record truncated",
        })
}

/// Decodes (and fully validates) one `SpillFormat` chunk record: magic,
/// version, flags, column table, length prefixes, structural consistency
/// and the trailing checksum; a tombstone is not a chunk record and is
/// `Corrupt` here. The chunk comes back laid out as the record holds it,
/// at the widths its flags name. The round trip
/// `decode_record(&encode_record(..))` is bit-identical — layout,
/// coordinates and IEEE-754 value bit patterns survive exactly.
pub fn decode_record(bytes: &[u8]) -> Result<SpillRecord, SpillError> {
    match decode(bytes)? {
        (record, false) => Ok(record),
        (_, true) => Err(SpillError::Corrupt {
            reason: "a tombstone, not a chunk record",
        }),
    }
}

/// The column table of the record whose header opens `bytes`: per
/// dimension, the coordinate every cell holds, or `None` for a column the
/// coordinate block stores.
fn column_table(bytes: &[u8]) -> Result<Vec<Option<u32>>, SpillError> {
    let n_dims = usize::from(u16::from_le_bytes(take::<2>(bytes, 18)?));
    let entry = |d: usize| {
        let at = SPILL_HEADER_BYTES + d * COLUMN_BYTES;
        let c = u32::from_le_bytes(take::<4>(bytes, at + 1)?);
        match bytes[at] {
            COLUMN_STORED if c == 0 => Ok(None),
            COLUMN_CONSTANT => Ok(Some(c)),
            _ => Err(SpillError::Corrupt {
                reason: "a column-table entry neither stored nor constant",
            }),
        }
    };
    (0..n_dims).map(entry).collect()
}

/// The length of the record whose header opens `bytes`, from its flags,
/// cell count and column table: how far a scan steps to the next record.
fn record_len(bytes: &[u8]) -> Result<usize, SpillError> {
    let (coord_width, value_width) = widths(u16::from_le_bytes(take::<2>(bytes, 6)?));
    let n_cells = u64::from(u32::from_le_bytes(take::<4>(bytes, 20)?));
    let columns = column_table(bytes)?;
    let stride = columns.iter().filter(|c| c.is_none()).count() as u64;
    let table = (columns.len() * COLUMN_BYTES) as u64;
    let cell = stride * coord_width as u64 + value_width as u64;
    let len = SPILL_HEADER_BYTES as u64 + table + 16 + n_cells * cell;
    usize::try_from(len).map_err(|_| SpillError::Corrupt {
        reason: "record longer than memory",
    })
}

/// [`decode_record`] of records and tombstones alike: the record, and
/// whether it is a tombstone.
fn decode(bytes: &[u8]) -> Result<(SpillRecord, bool), SpillError> {
    let body = checked_body(bytes, SPILL_MAGIC, SPILL_HEADER_BYTES + 16)?;
    let flags = u16::from_le_bytes(take::<2>(body, 6)?);
    let packed = u64::from_le_bytes(take::<8>(body, 8)?);
    let origin = body[16];
    let n_cells = u32::from_le_bytes(take::<4>(body, 20)?) as usize;
    let benefit = f64::from_bits(u64::from_le_bytes(take::<8>(body, 24)?));
    let tombstone = flags & FLAG_TOMBSTONE != 0;
    let (coord_width, value_width) = widths(flags);
    let columns = column_table(body)?;
    let stride = columns.iter().filter(|c| c.is_none()).count();
    let coord_len_at = SPILL_HEADER_BYTES + columns.len() * COLUMN_BYTES;
    let coord_len = u32::from_le_bytes(take::<4>(body, coord_len_at)?) as usize;
    let coords_at = coord_len_at + 4;
    let values_len_at = coords_at + coord_len;
    let value_len = u32::from_le_bytes(take::<4>(body, values_len_at)?) as usize;
    let values_at = values_len_at + 4;
    let known = FLAG_TOMBSTONE | FLAG_WIDE_COORDS | FLAG_WIDE_VALUES;
    let bad_flags = flags & !known != 0 || (tombstone && (flags != FLAG_TOMBSTONE || n_cells != 0));
    let bad_blocks =
        coord_len != n_cells * stride * coord_width || value_len != n_cells * value_width;
    if bad_flags || bad_blocks || values_at + value_len != body.len() {
        return Err(SpillError::Corrupt {
            reason: "flags or block lengths disagree with the header or the record's length",
        });
    }
    let coords = get_block::<u32>(
        &body[coords_at..values_len_at],
        flags & FLAG_WIDE_COORDS != 0,
    );
    let values = get_block::<f64>(&body[values_at..], flags & FLAG_WIDE_VALUES != 0);
    let data = ChunkData::from_stored(&columns, coords, values);
    let record = SpillRecord {
        key: ChunkKey::unpack(packed),
        origin,
        benefit,
        data,
    };
    Ok((record, tombstone))
}

/// [`decode_record`] of the record indexed under `key`: a valid record of
/// another key is corrupt.
fn decode_as(key: ChunkKey, bytes: &[u8]) -> Result<SpillRecord, SpillError> {
    let record = decode_record(bytes)?;
    if record.key != key {
        return Err(SpillError::Corrupt {
            reason: "record key disagrees with index",
        });
    }
    Ok(record)
}

/// What one read of the record `entry` names costs: see
/// [`SpillStore::read_cost`].
fn read_cost(entry: &IndexEntry) -> SpillMetrics {
    SpillMetrics {
        spill_reads: 1,
        bytes_read: u64::from(entry.bytes),
        spill_virtual_ms: SpillCostModel::read_ms(u64::from(entry.priced)),
        ..SpillMetrics::default()
    }
}

/// The number of a listed segment file (`{n:08x}.seg`).
fn segment_number((path, _): &(PathBuf, u64)) -> Option<u32> {
    u32::from_str_radix(path.file_stem()?.to_str()?, 16).ok()
}

/// Where one chunk's record lies, the size its read is priced at
/// ([`SpillCostModel::record_bytes`]), and whether the last checkpoint
/// found the chunk RAM-resident. Its origin and benefit are in the record.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    segment: u32,
    offset: u64,
    bytes: u32,
    priced: u32,
    resident: bool,
}

/// The disk tier: `SpillFormat` records appended to segment files plus a
/// persisted index, all under one directory (layout in `docs/FORMAT.md`).
/// A demotion is one append, a promotion one positioned read.
///
/// The in-memory index (a `BTreeMap` keyed on packed chunk keys) makes
/// [`SpillStore::contains`] free on the query path; iteration order —
/// and hence warm-start insertion order — is ascending packed key, which
/// is deterministic regardless of the history that populated the store.
///
/// All disk traffic flows through one object-safe [`SpillIo`] backend —
/// the plain filesystem, or a [`FaultInjectingSpillIo`] decorator when
/// the config carries a [`DiskFaultProfile`] — so the recovery machinery
/// (quarantine, index scavenge, checkpoint salvage, retries, scrubbing)
/// exercises a single code path in both healthy and chaos runs.
pub struct SpillStore {
    dir: PathBuf,
    io: Box<dyn SpillIo>,
    /// [`RetryPolicy::default`]'s backoff delays, precomputed once.
    backoff: Vec<f64>,
    scrub_interval_ms: Option<f64>,
    index: BTreeMap<u64, IndexEntry>,
    /// The segment the next append goes to: the highest-numbered one.
    active: u32,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("dir", &self.dir)
            .field("chunks", &self.index.len())
            .finish_non_exhaustive()
    }
}

impl SpillStore {
    /// [`SpillStore::open_metered`] with its delta dropped.
    pub fn open(config: SpillConfig) -> Result<Self, SpillError> {
        Self::open_metered(config).map(|(store, _)| store)
    }

    /// Opens (creating if necessary) the spill directory, validates the
    /// configuration, and loads the persisted index if one exists — the
    /// warm half of a warm restart. Returns the store with what opening
    /// found and repaired. Appends go on at the end of the last segment.
    ///
    /// Opening *self-heals*: a missing, truncated or corrupt index is
    /// rebuilt by scanning the segments — an *index scavenge*, counted in
    /// `index_rebuilds`, with every damaged span it skips counted corrupt
    /// and quarantined — instead of failing the open. Scavenged entries
    /// are never resident, so the restart degrades to a cold cache over an
    /// intact disk population, never an outage.
    pub fn open_metered(config: SpillConfig) -> Result<(Self, SpillMetrics), SpillError> {
        config.validate()?;
        let io: Box<dyn SpillIo> = match config.fault {
            Some(profile) => Box::new(FaultInjectingSpillIo::new(FsSpillIo, profile)?),
            None => Box::new(FsSpillIo),
        };
        io.create_dir_all(&config.dir)?;
        let segments = io.list_files(&config.dir, "seg")?;
        let mut store = Self {
            dir: config.dir,
            io,
            backoff: RetryPolicy::default().backoff_schedule(),
            scrub_interval_ms: config.scrub_interval_ms,
            index: BTreeMap::new(),
            active: segments
                .iter()
                .filter_map(segment_number)
                .max()
                .unwrap_or(0),
        };
        let mut delta = SpillMetrics::default();
        let idx = store.index_path();
        let scavenge = if idx.exists() {
            let (bytes, _) = store.read_retrying(|| store.io.read(&idx));
            bytes.and_then(|bytes| store.load_index(&bytes)).is_err()
        } else {
            // Segments with no index at all: same scavenge path.
            !segments.is_empty()
        };
        if scavenge {
            store.scavenge_index(&mut delta);
        }
        Ok((store, delta))
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The proactive scrub interval in query virtual ms, if enabled.
    pub fn scrub_interval_ms(&self) -> Option<f64> {
        self.scrub_interval_ms
    }

    /// Number of chunks in the store.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total serialized bytes of all indexed chunks: the live records,
    /// not the dead bytes beside them.
    pub fn bytes_on_disk(&self) -> u64 {
        self.index.values().map(|e| u64::from(e.bytes)).sum()
    }

    /// Whether `key` is spilled (an index lookup — no disk access, free on
    /// the query path).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.index.contains_key(&key.pack())
    }

    /// Every indexed key, in ascending packed order (no disk access).
    /// Used by delta ingestion to find spilled copies staled by an update.
    pub fn keys(&self) -> Vec<ChunkKey> {
        self.index.keys().map(|&p| ChunkKey::unpack(p)).collect()
    }

    /// Number of chunks marked RAM-resident by the last checkpoint.
    pub fn resident_count(&self) -> usize {
        self.index.values().filter(|e| e.resident).count()
    }

    fn segment_path(&self, segment: u32) -> PathBuf {
        self.dir.join(format!("{segment:08x}.seg"))
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Adds `len` bytes to the active segment through `add` (an append or
    /// a copy) and returns where they start — the offset the I/O layer
    /// reports. A segment grown to [`SEGMENT_BYTES`] is sealed.
    fn append(
        &mut self,
        len: usize,
        add: impl FnOnce(&dyn SpillIo, &Path) -> Result<u64, SpillError>,
    ) -> Result<(u32, u64), SpillError> {
        let segment = self.active;
        let offset = add(&*self.io, &self.segment_path(segment))?;
        if offset + len as u64 >= SEGMENT_BYTES {
            self.active += 1;
        }
        Ok((segment, offset))
    }

    /// Demotes one chunk to disk. Returns what the write cost:
    /// `spill_writes` 1, the serialized `bytes_written`, and
    /// [`SpillCostModel::write_ms`] of the record's priced size. The chunk
    /// is recorded as non-resident: residency is a checkpoint-time
    /// property.
    pub fn write(
        &mut self,
        key: ChunkKey,
        origin: u8,
        benefit: f64,
        data: &ChunkData,
    ) -> Result<SpillMetrics, SpillError> {
        let entry = self.append_record(key, origin, benefit, data)?;
        Ok(SpillMetrics {
            spill_writes: 1,
            bytes_written: u64::from(entry.bytes),
            spill_virtual_ms: SpillCostModel::write_ms(u64::from(entry.priced)),
            ..SpillMetrics::default()
        })
    }

    /// Appends one chunk's record and indexes it, non-resident; returns
    /// its index entry. A record too long for an index entry to name is
    /// refused before anything is written.
    fn append_record(
        &mut self,
        key: ChunkKey,
        origin: u8,
        benefit: f64,
        data: &ChunkData,
    ) -> Result<IndexEntry, SpillError> {
        // The priced size bounds the record's own, so it fits as well.
        let priced = SpillCostModel::record_bytes(data.n_dims(), data.len());
        let priced = u32::try_from(priced).map_err(|_| SpillError::Io {
            op: "append",
            error: format!("a {priced}-byte record is longer than an index entry can name"),
        })?;
        let encoded = encode_record(key, origin, benefit, data);
        let (segment, offset) = self.append(encoded.len(), |io, to| io.append(to, &encoded))?;
        let entry = IndexEntry {
            segment,
            offset,
            bytes: encoded.len() as u32,
            priced,
            resident: false,
        };
        self.index.insert(key.pack(), entry);
        // Sealing a segment is when dead bytes get reclaimed, checkpoint
        // or not, so the segments never grow past the live set for long.
        if self.active != segment && self.wasteful() {
            let _ = self.compact();
        }
        Ok(entry)
    }

    /// What reading one spilled chunk costs, from the index (no I/O):
    /// `spill_reads` 1, its serialized `bytes_read`, and
    /// [`SpillCostModel::read_ms`] of its priced size — what
    /// [`SpillStore::read_checked`] charges for a read that completes.
    /// `None` when the key is not spilled.
    pub fn read_cost(&self, key: ChunkKey) -> Option<SpillMetrics> {
        self.index.get(&key.pack()).map(read_cost)
    }

    /// Promotes one chunk from disk with one positioned read: `Ok(None)`
    /// when the key is not spilled, the fully validated record otherwise.
    /// The disk copy is retained — a later re-demotion of an unchanged
    /// chunk costs nothing.
    pub fn read(&self, key: ChunkKey) -> Result<Option<SpillRecord>, SpillError> {
        let Some(entry) = self.index.get(&key.pack()) else {
            return Ok(None);
        };
        decode_as(key, &self.read_entry(entry)?).map(Some)
    }

    /// One positioned read of the record `entry` names.
    fn read_entry(&self, entry: &IndexEntry) -> Result<Vec<u8>, SpillError> {
        let path = self.segment_path(entry.segment);
        self.io.read_at(&path, entry.offset, entry.bytes as usize)
    }

    /// The read warm start, promote-on-miss and scrubbing go through,
    /// charged to `delta`: [`SpillStore::read`] with transient errors
    /// retried under [`RetryPolicy::default`] (retry waste first, then
    /// [`SpillCostModel::read_ms`] of the indexed priced size for a read
    /// that completes, intact or not), and a record that fails its checksum or
    /// decode — or, when `grid` is given, is intact but not of it: a key
    /// the grid does not have, cells of another dimension count, what a
    /// directory checkpointed under another schema holds — counted corrupt
    /// and *quarantined*, so the chunk falls back to the miss path:
    /// corruption costs time, never correctness.
    ///
    /// Returns `Ok(None)` when the key is not spilled, and an error that
    /// [`SpillError::is_corruption`] when the record was quarantined. Any
    /// other error is a transient one that outlasted its retries; the
    /// record stays indexed, since it may be intact.
    pub fn read_checked(
        &mut self,
        key: ChunkKey,
        grid: Option<&ChunkGrid>,
        delta: &mut SpillMetrics,
    ) -> Result<Option<SpillRecord>, SpillError> {
        let Some(&entry) = self.index.get(&key.pack()) else {
            return Ok(None);
        };
        // Priced before it is decoded, so a corrupt read costs the same.
        let read_ms = read_cost(&entry).spill_virtual_ms;
        let (read, retries) = self.read_retrying(|| self.read_entry(&entry));
        delta.merge(&retries);
        let of_grid = |r: &SpillRecord| {
            grid.is_none_or(|g| g.has_chunk(key) && r.data.n_dims() == g.num_dims())
        };
        let record = read.and_then(|read| decode_as(key, &read)).and_then(|r| {
            of_grid(&r).then_some(r).ok_or(SpillError::Corrupt {
                reason: "record of another grid",
            })
        });
        match record {
            Ok(record) => {
                delta.spill_virtual_ms += read_ms;
                Ok(Some(record))
            }
            Err(e) if e.is_corruption() => {
                // The wasted read is still charged.
                delta.spill_virtual_ms += read_ms;
                delta.spill_corrupt += 1;
                self.quarantine(key, delta);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `read` through the I/O backend, re-attempting transient
    /// errors under [`RetryPolicy::default`] — the one retry loop behind
    /// the checked read, the index load and the scavenge. The delta
    /// charges each failed attempt one read dispatch plus its backoff
    /// delay; a first-attempt success charges nothing, keeping the healthy
    /// path bit-transparent.
    fn read_retrying(
        &self,
        read: impl Fn() -> Result<Vec<u8>, SpillError>,
    ) -> (Result<Vec<u8>, SpillError>, SpillMetrics) {
        let mut delta = SpillMetrics::default();
        loop {
            match read() {
                Err(e) if e.is_retryable() => {
                    // A transient error costs the dispatch, not the bytes.
                    delta.spill_virtual_ms += SpillCostModel::read_ms(0);
                    let Some(&backoff) = self.backoff.get(delta.spill_retries as usize) else {
                        return (Err(e), delta);
                    };
                    delta.spill_virtual_ms += backoff;
                    delta.spill_retries += 1;
                }
                result => return (result, delta),
            }
        }
    }

    /// Quarantines one record: [`SpillStore::retire`]s it, so the chunk
    /// is re-served through the normal miss path and the record — damaged
    /// on disk, or only in transit — can never be promoted again, nor
    /// re-indexed by a later scavenge.
    fn quarantine(&mut self, key: ChunkKey, delta: &mut SpillMetrics) {
        if !self.contains(key) {
            return;
        }
        delta.spill_quarantined += 1;
        self.retire(&[key]);
    }

    /// Takes `keys` out of the index and out of any later scavenge's
    /// reach: appends a tombstone for each, then persists the index once.
    /// Should a tombstone not land, the segments are compacted instead,
    /// which leaves the record it would retire behind on the old segments
    /// it deletes; only a compaction that fails too leaves a window in
    /// which a lost index could bring the record back.
    fn retire(&mut self, keys: &[ChunkKey]) {
        let mut lost = false;
        for &key in keys {
            self.index.remove(&key.pack());
            let tombstone = encode_tombstone(key);
            let appended = self.append(tombstone.len(), |io, to| {
                io.append_tombstone(to, &tombstone)
            });
            lost |= appended.is_err();
        }
        let _ = if lost {
            self.compact()
        } else {
            self.persist_index()
        };
    }

    /// Rebuilds the index by scanning the segments in order: a record
    /// supersedes earlier ones of its key, a tombstone drops its key, and
    /// a span that does not decode counts as one quarantined corruption
    /// and is skipped to the next [`SPILL_MAGIC`].
    fn scavenge_index(&mut self, delta: &mut SpillMetrics) {
        self.index.clear();
        let segments = self.io.list_files(&self.dir, "seg").unwrap_or_default();
        for listed @ (path, _) in &segments {
            let Some(segment) = segment_number(listed) else {
                continue;
            };
            let (read, _) = self.read_retrying(|| self.io.read(path));
            let bytes = read.unwrap_or_default();
            let (mut at, mut damaged) = (0, false);
            while at < bytes.len() {
                let rest = &bytes[at..];
                let record = record_len(rest).and_then(|len| {
                    let bytes = rest.get(..len).ok_or(SpillError::Corrupt {
                        reason: "record runs past its segment's end",
                    })?;
                    decode(bytes).map(|decoded| (decoded, len))
                });
                let Ok(((record, tombstone), len)) = record else {
                    if !damaged {
                        delta.spill_corrupt += 1;
                        delta.spill_quarantined += 1;
                    }
                    damaged = true;
                    let next = rest[1..].windows(4).position(|w| w == SPILL_MAGIC);
                    at += next.map_or(rest.len(), |i| i + 1);
                    continue;
                };
                damaged = false;
                let packed = record.key.pack();
                if tombstone {
                    self.index.remove(&packed);
                } else {
                    let entry = IndexEntry {
                        segment,
                        offset: at as u64,
                        bytes: len as u32,
                        priced: u32::try_from(SpillCostModel::record_bytes(
                            record.data.n_dims(),
                            record.data.len(),
                        ))
                        .unwrap_or(u32::MAX),
                        resident: false,
                    };
                    self.index.insert(packed, entry);
                }
                at += len;
            }
        }
        delta.index_rebuilds += 1;
        let _ = self.persist_index();
    }

    /// One proactive scrub pass: reads and checksum-verifies every
    /// indexed record (with transient-read retries), quarantining the
    /// corrupt ones ahead of demand. A transient error that outlasts its
    /// retries leaves the record for the next pass rather than
    /// quarantining a record that may be intact. The pass is summed on its
    /// own and returned with `scrub_passes` 1; it is background work no
    /// query owns.
    pub fn scrub(&mut self) -> SpillMetrics {
        let keys: Vec<u64> = self.index.keys().copied().collect();
        let mut pass = SpillMetrics {
            scrub_passes: 1,
            ..SpillMetrics::default()
        };
        for packed in keys {
            let _ = self.read_checked(ChunkKey::unpack(packed), None, &mut pass);
        }
        pass
    }

    /// Drops every spilled copy `stale` selects, in ascending key order,
    /// and returns the keys dropped. Each copy is `SpillStore::retire`d:
    /// it leaves the index, so it is never promoted again, and a tombstone
    /// keeps a later index scavenge from bringing it back. A sweep that
    /// dropped anything persists the index once, so a reopened store does
    /// not list the dropped keys.
    pub fn discard(&mut self, mut stale: impl FnMut(ChunkKey) -> bool) -> Vec<ChunkKey> {
        let mut dropped = self.keys();
        dropped.retain(|&key| stale(key));
        if !dropped.is_empty() {
            self.retire(&dropped);
        }
        dropped
    }

    /// Checkpoints the RAM-resident population: appends every entry,
    /// marks exactly those keys resident (clearing the flag on all
    /// others), and persists the index. A [`SpillStore::open`] over the
    /// same directory then reports them via [`SpillStore::resident_keys`]
    /// — the durable half of a warm restart. The segments are compacted
    /// first when they hold more dead bytes than live ones.
    ///
    /// Returns the records written (`spill_writes`, `bytes_written`),
    /// priced by `SpillCostModel::checkpoint_ms` over their priced sizes;
    /// compaction charges
    /// nothing. Checkpoints are salvaged record-by-record: a failed write
    /// (ENOSPC, injected fault, OS error) skips that record — counted in
    /// `demote_failures`, left non-resident, never aborting the
    /// remainder. Only a failure to persist the index itself is an error
    /// (and even then the next open scavenges).
    pub fn checkpoint<'a>(
        &mut self,
        resident: impl Iterator<Item = (ChunkKey, u8, f64, &'a ChunkData)>,
    ) -> Result<SpillMetrics, SpillError> {
        for entry in self.index.values_mut() {
            entry.resident = false;
        }
        let (mut delta, mut priced) = (SpillMetrics::default(), 0);
        for (key, origin, benefit, data) in resident {
            match self.append_record(key, origin, benefit, data) {
                Ok(written) => {
                    if let Some(entry) = self.index.get_mut(&key.pack()) {
                        entry.resident = true;
                    }
                    delta.bytes_written += u64::from(written.bytes);
                    delta.spill_writes += 1;
                    priced += u64::from(written.priced);
                }
                Err(_) => delta.demote_failures += 1,
            }
        }
        if self.wasteful() {
            self.compact()?;
        } else {
            self.persist_index()?;
        }
        delta.spill_virtual_ms = SpillCostModel::checkpoint_ms(delta.spill_writes, priced);
        Ok(delta)
    }

    /// Whether the segments hold more dead bytes — superseded, retired and
    /// quarantined records, tombstones, torn tails — than live ones.
    fn wasteful(&self) -> bool {
        let segments = self.io.list_files(&self.dir, "seg").unwrap_or_default();
        let held: u64 = segments.iter().map(|(_, len)| len).sum();
        let live = self.bytes_on_disk();
        held.saturating_sub(live) > live
    }

    /// Copies every live record verbatim, in log order, into fresh
    /// segments, persists the index naming the copies, then deletes the
    /// old segments, and every dead byte with them. A record that reads as
    /// corruption stays behind, so its next read reports it; any other
    /// failure stops the copying and deletes nothing. Only failing to
    /// persist the index is an error.
    fn compact(&mut self) -> Result<(), SpillError> {
        let Ok(old) = self.io.list_files(&self.dir, "seg") else {
            return self.persist_index();
        };
        self.active += 1;
        let mut live: Vec<(u64, IndexEntry)> = self.index.iter().map(|(&k, &e)| (k, e)).collect();
        live.sort_unstable_by_key(|&(_, e)| (e.segment, e.offset));
        let mut copied = true;
        for (packed, entry) in live {
            let (from, len) = (self.segment_path(entry.segment), entry.bytes as usize);
            match self.append(len, |io, to| io.copy(&from, entry.offset, len, to)) {
                Ok((segment, offset)) => {
                    let moved = IndexEntry {
                        segment,
                        offset,
                        ..entry
                    };
                    self.index.insert(packed, moved);
                }
                Err(e) if e.is_corruption() => {}
                Err(_) => {
                    copied = false;
                    break;
                }
            }
        }
        self.persist_index()?;
        if copied {
            for (segment, _) in old {
                let _ = self.io.remove(&segment);
            }
        }
        Ok(())
    }

    /// The chunks marked resident by the last checkpoint, in ascending
    /// packed-key order: the deterministic warm-start insertion order.
    pub fn resident_keys(&self) -> Vec<ChunkKey> {
        let resident = self.index.iter().filter(|(_, e)| e.resident);
        resident
            .map(|(&packed, _)| ChunkKey::unpack(packed))
            .collect()
    }

    /// Persists the index to `spill.idx` (binary, checksummed — layout in
    /// `docs/FORMAT.md`).
    fn persist_index(&self) -> Result<(), SpillError> {
        let mut out =
            Vec::with_capacity(INDEX_HEADER_BYTES + self.index.len() * INDEX_ENTRY_BYTES + 8);
        out.extend_from_slice(&SPILL_INDEX_MAGIC);
        out.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (&packed, e) in &self.index {
            out.extend_from_slice(&packed.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.segment.to_le_bytes());
            out.extend_from_slice(&e.bytes.to_le_bytes());
            out.extend_from_slice(&e.priced.to_le_bytes());
            out.extend_from_slice(&[u8::from(e.resident), 0, 0, 0]); // resident, pad
        }
        let checksum = spill_checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        self.io.write(&self.index_path(), &out)
    }

    fn load_index(&mut self, bytes: &[u8]) -> Result<(), SpillError> {
        let body_len = checked_body(bytes, SPILL_INDEX_MAGIC, INDEX_HEADER_BYTES + 8)?.len();
        let count = u32::from_le_bytes(take::<4>(bytes, 8)?) as usize;
        if INDEX_HEADER_BYTES + count * INDEX_ENTRY_BYTES != body_len {
            return Err(SpillError::Corrupt {
                reason: "index length disagrees with entry count",
            });
        }
        self.index.clear();
        for i in 0..count {
            let at = INDEX_HEADER_BYTES + i * INDEX_ENTRY_BYTES;
            let packed = u64::from_le_bytes(take::<8>(bytes, at)?);
            let entry = IndexEntry {
                offset: u64::from_le_bytes(take::<8>(bytes, at + 8)?),
                segment: u32::from_le_bytes(take::<4>(bytes, at + 16)?),
                bytes: u32::from_le_bytes(take::<4>(bytes, at + 20)?),
                priced: u32::from_le_bytes(take::<4>(bytes, at + 24)?),
                resident: bytes[at + 28] != 0,
            };
            self.index.insert(packed, entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_chunks::{Coords, Values, NARROW_MAX};
    use aggcache_schema::GroupById;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    /// Every coordinate of every cell, row-major, whatever the layout.
    fn all_coords(d: &ChunkData) -> Vec<u32> {
        d.iter().flat_map(|(c, _)| c.iter()).collect()
    }

    fn sample_chunk() -> ChunkData {
        let mut d = ChunkData::new(2);
        d.push(&[0, 1], 1.5);
        d.push(&[2, 3], -4.25);
        d.push(&[7, 0], 0.0);
        d
    }

    /// `sample_chunk`'s coordinates with whole-number values `u16` holds.
    fn whole_chunk() -> ChunkData {
        let mut d = ChunkData::new(2);
        d.push(&[0, 1], 3.0);
        d.push(&[2, 3], 65_535.0);
        d.push(&[7, 0], 0.0);
        d
    }

    fn sample_key() -> ChunkKey {
        ChunkKey::new(GroupById(3), 7)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggcache-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Flips one payload byte of `key`'s record where its segment holds it.
    fn flip_record_byte(store: &SpillStore, key: ChunkKey) {
        let entry = store.index[&key.pack()];
        let path = store.segment_path(entry.segment);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entry.offset as usize + SPILL_HEADER_BYTES + 6] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// The bytes every segment under `dir` holds.
    fn segment_bytes(dir: &Path) -> u64 {
        let segments = FsSpillIo.list_files(dir, "seg").unwrap();
        segments.iter().map(|(_, len)| len).sum()
    }

    /// The checksum as `docs/FORMAT.md` spells it, one word at a time:
    /// word `i` into lane `i mod 4`, the lanes folded in order, then the
    /// tail bytes — over every length from empty to past two blocks.
    #[test]
    fn checksum_hashes_words_then_the_tail_bytes() {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let step = |hash: u64, x: u64| (hash ^ x).wrapping_mul(PRIME);
        let bytes: Vec<u8> = (1..=77).collect();
        for len in 0..=bytes.len() {
            let bytes = &bytes[..len];
            let mut lanes = [BASIS; 4];
            for (i, w) in bytes.chunks_exact(8).enumerate() {
                lanes[i % 4] = step(lanes[i % 4], u64::from_le_bytes(w.try_into().unwrap()));
            }
            let mut want = lanes.into_iter().fold(BASIS, step);
            for &b in &bytes[len / 8 * 8..] {
                want = step(want, u64::from(b));
            }
            assert_eq!(spill_checksum(bytes), want, "{len} bytes");
        }
        // Every word's lane matters: swapping two words moves the sum.
        let mut swapped = bytes.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(spill_checksum(&swapped), spill_checksum(&bytes));
    }

    #[test]
    fn a_tombstone_is_a_record_but_not_a_chunk_record() {
        let bytes = encode_tombstone(sample_key());
        assert_eq!(bytes.len(), SPILL_HEADER_BYTES + 16);
        let (record, tombstone) = decode(&bytes).unwrap();
        assert!(tombstone && record.data.is_empty());
        assert_eq!(record.key, sample_key());
        assert!(decode_record(&bytes).unwrap_err().is_corruption());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let data = sample_chunk();
        let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &data);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec.key, sample_key());
        assert_eq!(dec.origin, ORIGIN_COMPUTED);
        assert_eq!(dec.benefit.to_bits(), 2.5f64.to_bits());
        assert_eq!(all_coords(&dec.data), all_coords(&data));
        let got: Vec<u64> = dec.data.raw_values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = data.raw_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // Re-encoding the decoded record reproduces the bytes exactly.
        assert_eq!(
            encode_record(dec.key, dec.origin, dec.benefit, &dec.data),
            enc
        );
    }

    /// SpillFormat v5's exact bytes for `sample_chunk` and `whole_chunk`.
    /// A record holds both columns stored, at `u16` LE, and the values at
    /// the narrowest width that holds them — `f64` LE for the first, `u16`
    /// LE for the second — whatever widths the chunk holds in memory.
    #[test]
    fn a_record_keeps_its_format_v5_bytes() {
        const RECORD: &str = "41435350050004000700000000030000010002000300000000000000000004400000\
            00000000000000000c00000000000100020003000700000018000000000000000000f83f00000000\
            000011c00000000000000000af13908b98aea823";
        const WHOLE: &str = "41435350050000000700000000030000010002000300000000000000000004400000\
            00000000000000000c000000000001000200030007000000060000000300ffff0000096930fd7d4c54c4";
        for (narrow, hex, value_bytes) in [(sample_chunk(), RECORD, 8), (whole_chunk(), WHOLE, 2)] {
            let want: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            let wide = ChunkData::from_raw(2, all_coords(&narrow), narrow.raw_values().to_vec());
            assert!(matches!(narrow.stored_coords(), Coords::U16(_)));
            assert!(matches!(wide.stored_coords(), Coords::Wide(_)));
            assert!(matches!(wide.raw_values(), Values::Wide(_)));
            assert_eq!(wide.columns(), narrow.columns());
            for data in [&narrow, &wide] {
                assert_eq!(
                    to_hex(&encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, data)),
                    to_hex(&want)
                );
            }
            assert_eq!(record_len(&want).unwrap(), want.len());
            assert_eq!(
                want.len(),
                SPILL_HEADER_BYTES + 2 * COLUMN_BYTES + 16 + 3 * (2 * 2 + value_bytes)
            );
        }
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Each flag sets its own block's width: a stored coordinate past `u16`
    /// sets flag bit 1 and writes every stored coordinate as `u32`, and a
    /// value `u16` does not hold sets bit 2 and writes every value as
    /// `f64`; the scan's record length follows both.
    #[test]
    fn each_width_flag_widens_its_own_block() {
        let n_cells = 4;
        let (wide_coords, wide_values) = (FLAG_WIDE_COORDS, FLAG_WIDE_VALUES);
        for (chunk, coord, value, flags, cell) in [
            (sample_chunk(), 9, 9.0, wide_values, 2 * 2 + 8),
            (
                sample_chunk(),
                70_000,
                9.0,
                wide_coords | wide_values,
                2 * 4 + 8,
            ),
            (whole_chunk(), 9, 9.0, 0, 2 * 2 + 2),
            (whole_chunk(), 70_000, 9.0, wide_coords, 2 * 4 + 2),
            (whole_chunk(), 9, 65_536.0, wide_values, 2 * 2 + 8),
            (whole_chunk(), 9, -0.0, wide_values, 2 * 2 + 8),
            (whole_chunk(), 9, 0.1, wide_values, 2 * 2 + 8),
        ] {
            let mut data = chunk;
            data.push(&[coord, 1], value);
            let bytes = encode_record(sample_key(), ORIGIN_BACKEND, 1.0, &data);
            assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), flags);
            let table = 2 * COLUMN_BYTES;
            assert_eq!(
                bytes.len(),
                SPILL_HEADER_BYTES + table + 16 + n_cells * cell
            );
            assert_eq!(record_len(&bytes).unwrap(), bytes.len());
            assert_eq!(decode_record(&bytes).unwrap().data, data);
        }
    }

    /// A record whose flags disagree with its blocks, an unknown flag (bit
    /// 3 among them, which named `u16` values in version 4), or a
    /// tombstone flag beside a width flag is corrupt even when its checksum
    /// matches.
    #[test]
    fn a_flag_its_blocks_do_not_match_is_corrupt() {
        let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &sample_chunk());
        let whole = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &whole_chunk());
        let tombstone = encode_tombstone(sample_key());
        for (bytes, flags) in [
            (&enc, FLAG_WIDE_COORDS | FLAG_WIDE_VALUES),
            (&enc, 0),
            (&enc, 8),
            (&enc, FLAG_WIDE_VALUES | 16),
            (&whole, FLAG_WIDE_VALUES),
            (&whole, FLAG_WIDE_COORDS),
            (&whole, 8),
            (&tombstone, FLAG_TOMBSTONE | FLAG_WIDE_COORDS),
            (&tombstone, FLAG_TOMBSTONE | FLAG_WIDE_VALUES),
        ] {
            let mut bad = bytes.clone();
            bad[6..8].copy_from_slice(&flags.to_le_bytes());
            let body = bad.len() - 8;
            let sum = spill_checksum(&bad[..body]).to_le_bytes();
            bad[body..].copy_from_slice(&sum);
            assert!(
                matches!(decode(&bad), Err(SpillError::Corrupt { .. })),
                "flags {flags:#x}"
            );
        }
    }

    /// Each layout round-trips to itself: a chunk that holds a column once
    /// is written with that column in its table, at `u32` whatever its
    /// stored block's width, and a chunk that stores it writes it into
    /// every cell — wide once it is past `u16`. Each decodes to its own
    /// layout and widths and re-encodes to its own bytes.
    #[test]
    fn each_layout_round_trips_to_itself() {
        for constant in [5, NARROW_MAX + 9] {
            let cells = [[0, constant], [2, constant], [7, constant]];
            let values = vec![1.5, -4.25, 0.0];
            let flat: Vec<u32> = cells.concat();
            let full = ChunkData::from_stored(&[None, None], flat.clone(), values.clone());
            let mut pushed = ChunkData::new(2);
            for (c, &v) in cells.iter().zip(&values) {
                pushed.push(c, v);
            }
            let raw = ChunkData::from_raw(2, flat, values);
            assert_eq!(raw.columns(), pushed.columns());
            assert_eq!(pushed.columns()[1], Column::Constant(constant));
            let [full_len, once_len] = [&full, &pushed]
                .map(|data| encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, data).len());
            assert_eq!(
                once_len,
                SPILL_HEADER_BYTES + 2 * COLUMN_BYTES + 16 + 3 * (2 + 8)
            );
            let full_width = if constant > NARROW_MAX { 4 } else { 2 };
            assert_eq!(full_len, once_len + 3 * (2 * full_width - 2));
            for data in [&full, &pushed, &raw] {
                let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, data);
                let flags = u16::from_le_bytes([enc[6], enc[7]]);
                let wide = data.stride() == 2 && constant > NARROW_MAX;
                assert_eq!(flags & FLAG_WIDE_COORDS != 0, wide);
                let dec = decode_record(&enc).unwrap().data;
                assert_eq!(dec.columns(), data.columns());
                assert_eq!(matches!(dec.stored_coords(), Coords::Wide(_)), wide);
                assert_eq!(&dec, data);
                let re = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &dec);
                assert_eq!(to_hex(&re), to_hex(&enc));
            }
        }
    }

    /// Each chunk of `past` holds an entry of the block `held` reads that
    /// `u16` does not hold, and comes back with that block wide, every bit
    /// intact; each of `fit` holds none and comes back with it narrow and
    /// its cells equal, whatever width it was written from.
    fn each_width_survives_a_round_trip_at<W: Wide>(
        held: fn(&ChunkData) -> Held<'_, W>,
        past: &[ChunkData],
        fit: &[ChunkData],
    ) {
        let round_trip = |d: &ChunkData| {
            decode_record(&encode_record(sample_key(), ORIGIN_BACKEND, 1.0, d))
                .unwrap()
                .data
        };
        let wide = |d: &ChunkData| matches!(held(d), Held::Wide(_));
        let bits = |d: &ChunkData| d.raw_values().iter().map(f64::to_bits).collect::<Vec<_>>();
        for d in past {
            let dec = round_trip(d);
            assert!(wide(d) && wide(&dec), "{d:?}");
            assert_eq!((all_coords(&dec), bits(&dec)), (all_coords(d), bits(d)));
        }
        for d in fit {
            let dec = round_trip(d);
            assert!(!wide(&dec), "{d:?}");
            assert_eq!((&dec, bits(&dec)), (&fit[0], bits(&fit[0])));
        }
    }

    /// A stored coordinate past `u16` comes back at `u32`; a chunk whose
    /// coordinates all fit comes back at `u16`, written from either width.
    #[test]
    fn each_width_survives_a_round_trip() {
        let mut past = sample_chunk();
        past.push(&[70_000, 1], 9.0);
        let narrow = ChunkData::from_raw(2, vec![0u32, 1, 65_535, 3], vec![1.0, 2.0]);
        assert!(matches!(narrow.stored_coords(), Coords::Wide(_)));
        each_width_survives_a_round_trip_at(ChunkData::stored_coords, &[past], &[narrow]);
    }

    /// A value `u16` does not hold comes back at `f64`, every bit intact; a
    /// chunk whose values all fit comes back at `u16`, written from either
    /// width.
    #[test]
    fn each_value_width_survives_a_round_trip() {
        let payload_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let past = [0.1, 65_536.0, -0.0, f64::MIN_POSITIVE / 2.0, payload_nan].map(|v| {
            let mut wide = whole_chunk();
            wide.push(&[4, 4], v);
            wide
        });
        let whole = whole_chunk();
        let wide = ChunkData::from_raw(2, all_coords(&whole), whole.raw_values().to_vec());
        assert!(matches!(whole.raw_values(), Values::U16(_)));
        assert!(matches!(wide.raw_values(), Values::Wide(_)));
        each_width_survives_a_round_trip_at(ChunkData::raw_values, &past, &[whole, wide]);
    }

    /// A chunk with no cells, and one with cells but no dimensions (an
    /// empty column table), each round-trip to their own bytes.
    #[test]
    fn empty_chunk_round_trips() {
        let data = ChunkData::new(3);
        let enc = encode_record(sample_key(), ORIGIN_BACKEND, 0.0, &data);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec.data.len(), 0);
        assert_eq!(dec.data.n_dims(), 3);
        let mut dimensionless = ChunkData::new(0);
        dimensionless.push(&[], 3.0);
        dimensionless.push(&[], 0.5);
        let enc = encode_record(sample_key(), ORIGIN_BACKEND, 0.0, &dimensionless);
        assert_eq!(record_len(&enc).unwrap(), enc.len());
        let dec = decode_record(&enc).unwrap().data;
        assert_eq!(dec, dimensionless);
        assert_eq!(encode_record(sample_key(), ORIGIN_BACKEND, 0.0, &dec), enc);
    }

    #[test]
    fn nan_and_negative_zero_values_survive() {
        let mut d = ChunkData::new(1);
        d.push(&[0], f64::NAN);
        d.push(&[1], -0.0);
        d.push(&[2], f64::INFINITY);
        let dec =
            decode_record(&encode_record(sample_key(), ORIGIN_BACKEND, f64::MAX, &d)).unwrap();
        let got: Vec<u64> = dec.data.raw_values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = d.raw_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "IEEE-754 bit patterns must survive exactly");
    }

    #[test]
    fn corruption_is_detected() {
        let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &sample_chunk());
        // Flip one payload byte: checksum must catch it.
        let mut bad = enc.clone();
        bad[SPILL_HEADER_BYTES + 6] ^= 0x40;
        assert!(matches!(decode_record(&bad), Err(SpillError::BadChecksum)));
        // Truncation.
        assert!(decode_record(&enc[..enc.len() - 3]).is_err());
        // Wrong magic.
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(matches!(decode_record(&bad), Err(SpillError::BadMagic)));
        // Another version (checksum fixed up so only the version differs).
        let mut bad = enc.clone();
        bad[4] = 1;
        let body = bad.len() - 8;
        let sum = spill_checksum(&bad[..body]).to_le_bytes();
        bad[body..].copy_from_slice(&sum);
        assert!(matches!(
            decode_record(&bad),
            Err(SpillError::BadVersion { found: 1 })
        ));
    }

    #[test]
    fn store_write_read_discard() {
        let dir = tmpdir("wrr");
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert!(store.is_empty());
        let data = sample_chunk();
        let written = store
            .write(sample_key(), ORIGIN_BACKEND, 3.0, &data)
            .unwrap();
        assert_eq!(written.bytes_written, store.bytes_on_disk());
        let bytes = encode_record(sample_key(), ORIGIN_BACKEND, 3.0, &data).len() as u64;
        let priced = SpillCostModel::record_bytes(data.n_dims(), data.len());
        let want = SpillMetrics {
            spill_writes: 1,
            bytes_written: bytes,
            spill_virtual_ms: SpillCostModel::write_ms(priced),
            ..SpillMetrics::default()
        };
        assert_eq!(written, want);
        let read = store.read_cost(sample_key()).unwrap();
        assert_eq!(read.bytes_read, bytes);
        assert_eq!(read.spill_virtual_ms, SpillCostModel::read_ms(priced));
        assert!(store.contains(sample_key()));
        let rec = store.read(sample_key()).unwrap().unwrap();
        assert_eq!(all_coords(&rec.data), all_coords(&data));
        assert!(store
            .read(ChunkKey::new(GroupById(0), 0))
            .unwrap()
            .is_none());
        assert_eq!(store.discard(|_| true), [sample_key()]);
        assert!(store.discard(|_| true).is_empty());
        assert!(store.is_empty());
        let reopened = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert!(reopened.is_empty(), "the discard reached spill.idx");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A discard's tombstone retires the records before it, not after: a
    /// scavenge leaves the discarded key out until it is written again.
    #[test]
    fn a_discarded_record_cannot_be_scavenged_back() {
        let dir = tmpdir("discard");
        let (ka, kb) = (sample_key(), ChunkKey::new(GroupById(1), 1));
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store
            .write(ka, ORIGIN_BACKEND, 3.0, &sample_chunk())
            .unwrap();
        store
            .write(kb, ORIGIN_BACKEND, 3.0, &sample_chunk())
            .unwrap();
        assert_eq!(store.discard(|key| key == ka), [ka]);
        store.scavenge_index(&mut SpillMetrics::default());
        assert_eq!(store.keys(), [kb], "the stale record was re-indexed");
        store
            .write(ka, ORIGIN_COMPUTED, 5.0, &sample_chunk())
            .unwrap();
        let mut delta = SpillMetrics::default();
        store.scavenge_index(&mut delta);
        assert_eq!(store.keys(), [kb, ka]);
        assert_eq!(store.read(ka).unwrap().unwrap().origin, ORIGIN_COMPUTED);
        assert_eq!(delta.spill_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The file system, scripted: the next `fail_appends` record appends
    /// fail with ENOSPC, and with `tombstones` off no tombstone ever lands.
    #[derive(Debug)]
    struct ScriptedIo {
        fail_appends: AtomicU64,
        tombstones: bool,
    }

    impl ScriptedIo {
        fn new(fail_appends: u64, tombstones: bool) -> Self {
            Self {
                fail_appends: AtomicU64::new(fail_appends),
                tombstones,
            }
        }
    }

    impl SpillIo for ScriptedIo {
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
            FsSpillIo.write(path, bytes)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, SpillError> {
            FsSpillIo.read(path)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
            let failing = self
                .fail_appends
                .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
            if failing.is_ok() {
                return Err(SpillError::NoSpace);
            }
            FsSpillIo.append(path, bytes)
        }
        fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
            FsSpillIo.read_at(path, offset, len)
        }
        fn append_tombstone(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
            if !self.tombstones {
                return Err(SpillError::NoSpace);
            }
            FsSpillIo.append_tombstone(path, bytes)
        }
        fn remove(&self, path: &Path) -> Result<(), SpillError> {
            FsSpillIo.remove(path)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<(), SpillError> {
            FsSpillIo.create_dir_all(dir)
        }
        fn list_files(&self, dir: &Path, ext: &str) -> Result<Vec<(PathBuf, u64)>, SpillError> {
            FsSpillIo.list_files(dir, ext)
        }
    }

    /// A tombstone that does not land is made up for by a compaction: the
    /// retired record leaves the disk with the old segments, so a scavenge
    /// cannot bring it back — after a discard and a quarantine alike.
    #[test]
    fn a_retired_record_cannot_be_scavenged_back_when_its_tombstone_fails() {
        let dir = tmpdir("no-tombstone");
        let keys: Vec<ChunkKey> = (0..3).map(|c| ChunkKey::new(GroupById(1), c)).collect();
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        for &key in &keys {
            store
                .write(key, ORIGIN_BACKEND, 3.0, &sample_chunk())
                .unwrap();
        }
        store.io = Box::new(ScriptedIo::new(0, false));
        assert_eq!(store.discard(|key| key == keys[0]), [keys[0]]);
        // What a bit flip in transit leaves: a quarantined, intact record.
        let mut delta = SpillMetrics::default();
        store.quarantine(keys[1], &mut delta);
        assert_eq!(delta.spill_quarantined, 1);
        assert_eq!(segment_bytes(&dir), store.bytes_on_disk(), "compacted");
        store.scavenge_index(&mut SpillMetrics::default());
        assert_eq!(store.keys(), [keys[2]], "a retired record was re-indexed");
        assert_eq!(store.read(keys[2]).unwrap().unwrap().data, sample_chunk());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sealing a segment reclaims dead bytes with no checkpoint: a live
    /// set demoted over and over keeps the segments within twice its size
    /// plus the segment being filled, and reads back bit-identical.
    #[test]
    fn sealing_a_segment_keeps_the_segments_near_the_live_bytes() {
        let dir = tmpdir("bounded");
        let mut data = ChunkData::new(2);
        for x in 0..16_384u32 {
            data.push(&[x, x / 7], f64::from(x) * 0.5);
        }
        let keys: Vec<ChunkKey> = (0..20).map(|c| ChunkKey::new(GroupById(1), c)).collect();
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        let mut written = 0;
        for round in 0..6 {
            for &key in &keys {
                let len = store
                    .write(key, ORIGIN_BACKEND, f64::from(round), &data)
                    .unwrap()
                    .bytes_written;
                written += len;
                let bound = 2 * store.bytes_on_disk() + SEGMENT_BYTES + len;
                assert!(segment_bytes(&dir) <= bound, "round {round}, {key:?}");
            }
        }
        let bound = 2 * store.bytes_on_disk() + SEGMENT_BYTES;
        assert!(written > bound, "enough writes to outgrow it uncompacted");
        for &key in &keys {
            let record = store.read(key).unwrap().unwrap();
            assert_eq!(
                encode_record(record.key, record.origin, record.benefit, &record.data),
                encode_record(key, ORIGIN_BACKEND, 5.0, &data)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_survives_reopen() {
        let dir = tmpdir("ckpt");
        let a = sample_chunk();
        let mut b = ChunkData::new(2);
        b.push(&[9, 9], 42.0);
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            // A demoted-but-not-resident chunk must not warm-start.
            store
                .write(ChunkKey::new(GroupById(0), 1), ORIGIN_COMPUTED, 1.0, &b)
                .unwrap();
            let stats = store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &a),
                        (kb, ORIGIN_COMPUTED, 4.0, &b),
                    ]
                    .into_iter(),
                )
                .unwrap();
            assert_eq!(stats.spill_writes, 2);
            assert!(stats.bytes_written > 0);
            assert_eq!(stats.demote_failures, 0);
            let priced =
                SpillCostModel::record_bytes(2, a.len()) + SpillCostModel::record_bytes(2, b.len());
            assert_eq!(
                stats.spill_virtual_ms.to_bits(),
                SpillCostModel::checkpoint_ms(2, priced).to_bits()
            );
        }
        let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.resident_count(), 2);
        assert_eq!(
            store.resident_keys(),
            [ka, kb],
            "ascending packed-key order"
        );
        let rec = store.read(ka).unwrap().unwrap();
        assert_eq!(all_coords(&rec.data), all_coords(&a));
        assert_eq!(rec.origin, ORIGIN_BACKEND);
        let rec = store.read(kb).unwrap().unwrap();
        assert_eq!(rec.benefit.to_bits(), 4.0f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_covers_every_knob() {
        let dir = tmpdir("cfg");
        assert!(matches!(
            SpillConfig::new(&dir)
                .fault(DiskFaultProfile {
                    torn_write_rate: -0.5,
                    ..DiskFaultProfile::default()
                })
                .validate(),
            Err(SpillError::BadRate {
                field: "torn_write_rate",
                ..
            })
        ));
        assert!(matches!(
            SpillConfig::new(&dir).scrub_interval_ms(0.0).validate(),
            Err(SpillError::BadScrubInterval { value }) if value == 0.0
        ));
        assert!(SpillConfig::new(&dir)
            .fault(DiskFaultProfile::uniform(0.2, 7))
            .scrub_interval_ms(100.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn torn_write_is_detected_and_quarantined() {
        let dir = tmpdir("torn");
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            torn_write_rate: 1.0,
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        // The torn write itself reports success — corruption is silent.
        store
            .write(sample_key(), ORIGIN_BACKEND, 1.0, &sample_chunk())
            .unwrap();
        let err = store.read(sample_key()).unwrap_err();
        assert!(err.is_corruption(), "torn record must fail decode: {err}");
        let mut delta = SpillMetrics::default();
        store.quarantine(sample_key(), &mut delta);
        assert_eq!(delta.spill_quarantined, 1);
        assert!(!store.contains(sample_key()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_budget_surfaces_as_no_space() {
        let dir = tmpdir("enospc");
        let d = sample_chunk();
        // Room for one record and a half: the second write does not fit.
        let len = encode_record(ChunkKey::new(GroupById(1), 1), ORIGIN_BACKEND, 1.0, &d).len();
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            enospc_after_bytes: Some((len + len / 2) as u64),
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        assert!(store
            .write(ChunkKey::new(GroupById(1), 1), ORIGIN_BACKEND, 1.0, &d)
            .is_ok());
        assert!(matches!(
            store.write(ChunkKey::new(GroupById(1), 2), ORIGIN_BACKEND, 1.0, &d),
            Err(SpillError::NoSpace)
        ));
        // The failed key was never indexed.
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_salvages_past_failed_records() {
        let dir = tmpdir("salvage");
        let a = sample_chunk();
        let mut b = ChunkData::new(2);
        b.push(&[5, 5], 9.0);
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            store.io = Box::new(ScriptedIo::new(1, true));
            let stats = store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &a),
                        (kb, ORIGIN_COMPUTED, 4.0, &b),
                    ]
                    .into_iter(),
                )
                .unwrap();
            assert_eq!(stats.demote_failures, 1, "first record's write fails");
            assert_eq!(stats.spill_writes, 1, "second record still lands");
        }
        let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        let resident = store.resident_keys();
        assert_eq!(resident, [kb], "only the salvaged record warm-starts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_index_is_scavenged_on_open() {
        let dir = tmpdir("scavenge");
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            // One truncated index write: the checkpoint "crashes" mid-index.
            let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
                truncate_next_index_writes: 1,
                ..DiskFaultProfile::default()
            }))
            .unwrap();
            store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &sample_chunk()),
                        (kb, ORIGIN_COMPUTED, 4.0, &sample_chunk()),
                    ]
                    .into_iter(),
                )
                .unwrap();
        }
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1, "scavenge must run");
        assert_eq!(opened.spill_quarantined, 0);
        assert_eq!(store.len(), 2, "segments fully recovered");
        assert_eq!(store.resident_count(), 0, "residency is not reconstructed");
        // The scavenge recomputes each read's priced size from the header.
        let priced = SpillCostModel::record_bytes(2, sample_chunk().len());
        let read = store.read_cost(ka).unwrap();
        assert_eq!(read.spill_virtual_ms, SpillCostModel::read_ms(priced));
        // The scavenge persisted a fresh index: the next open is clean.
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened, SpillMetrics::default());
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scan behind a lost index: the last record of a key wins, and
    /// each damaged span — a corrupt record, a torn tail — counts once
    /// and is skipped to the next record.
    #[test]
    fn scavenge_lets_the_last_record_win_and_skips_damage() {
        let dir = tmpdir("scavbad");
        let (ka, kb, kc) = (
            ChunkKey::new(GroupById(1), 5),
            ChunkKey::new(GroupById(1), 6),
            ChunkKey::new(GroupById(1), 7),
        );
        let mut newer = sample_chunk();
        newer.push(&[9, 9], 9.0);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            for (key, origin, data) in [
                (ka, ORIGIN_BACKEND, &sample_chunk()),
                (kb, ORIGIN_BACKEND, &sample_chunk()),
                (ka, ORIGIN_COMPUTED, &newer),
                (kc, ORIGIN_BACKEND, &sample_chunk()),
            ] {
                store.write(key, origin, 2.0, data).unwrap();
            }
            flip_record_byte(&store, kb);
            // What a torn append leaves at the tail.
            let _ = FsSpillIo.append(&store.segment_path(0), b"ACSPgarbage");
        }
        // No index at all: open must scavenge.
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1, "scavenge must run");
        assert_eq!(opened.spill_corrupt, 2);
        assert_eq!(opened.spill_quarantined, 2);
        assert_eq!(store.keys(), [ka, kc]);
        let record = store.read(ka).unwrap().unwrap();
        assert_eq!((record.origin, record.data), (ORIGIN_COMPUTED, newer));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash mid-append leaves a torn record at the active segment's
    /// end. Reopened, every earlier record is served, the cut one is
    /// quarantined as corruption (not an `Io` error), and the next
    /// demotion lands after the segment's real end and reads back bit for
    /// bit.
    #[test]
    fn a_torn_tail_is_harmless() {
        let dir = tmpdir("torntail");
        let keys: Vec<ChunkKey> = (0..3).map(|c| ChunkKey::new(GroupById(1), c)).collect();
        let cut = {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            for &key in &keys {
                store
                    .write(key, ORIGIN_BACKEND, 1.0, &sample_chunk())
                    .unwrap();
            }
            store.checkpoint(std::iter::empty()).unwrap();
            let last = store.index[&keys[2].pack()];
            last.offset + u64::from(last.bytes) / 2
        };
        let segment = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("00000000.seg"))
            .unwrap();
        segment.set_len(cut).unwrap();
        let (mut store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened, SpillMetrics::default(), "the index is intact");
        let mut delta = SpillMetrics::default();
        for &key in &keys[..2] {
            let record = store.read_checked(key, None, &mut delta).unwrap().unwrap();
            assert_eq!(record.data, sample_chunk());
        }
        let err = store.read_checked(keys[2], None, &mut delta).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!((delta.spill_corrupt, delta.spill_quarantined), (1, 1));
        assert!(!store.contains(keys[2]));
        let mut data = ChunkData::new(2);
        data.push(&[4, 4], 0.25);
        let key = ChunkKey::new(GroupById(2), 9);
        store.write(key, ORIGIN_COMPUTED, 3.0, &data).unwrap();
        // The quarantine's tombstone went first, at the segment's real end.
        let tombstone = encode_tombstone(keys[2]).len() as u64;
        assert_eq!(store.index[&key.pack()].offset, cut + tombstone);
        let record = store.read(key).unwrap().unwrap();
        assert_eq!(
            encode_record(record.key, record.origin, record.benefit, &record.data),
            encode_record(key, ORIGIN_COMPUTED, 3.0, &data)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint over segments whose dead bytes outweigh their live
    /// ones compacts them: the segments shrink to the live records, each
    /// reads back bit-identical, and a discarded key stays gone after a
    /// later index loss.
    #[test]
    fn checkpoint_compacts_once_dead_bytes_outweigh_live_ones() {
        let dir = tmpdir("compact");
        let keys: Vec<ChunkKey> = (0..4).map(|c| ChunkKey::new(GroupById(1), c)).collect();
        let data = |c: u64| {
            let mut d = ChunkData::new(2);
            for x in 0..=c as u32 {
                d.push(&[x, 1], f64::from(x) + 0.5);
            }
            d
        };
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        for benefit in [0.0, 1.0, 2.0] {
            for &key in &keys {
                store
                    .write(key, ORIGIN_BACKEND, benefit, &data(key.chunk))
                    .unwrap();
            }
        }
        assert_eq!(store.discard(|key| key == keys[0]), [keys[0]]);
        let live = store.bytes_on_disk();
        assert!(
            segment_bytes(&dir) > 2 * live,
            "dead bytes outweigh live ones"
        );
        let written = store.checkpoint(std::iter::empty()).unwrap();
        assert_eq!(
            written,
            SpillMetrics::default(),
            "compaction charges nothing"
        );
        assert_eq!(segment_bytes(&dir), live, "only the live records remain");
        assert!(
            !dir.join("00000000.seg").exists(),
            "the old segment is gone"
        );
        for &key in &keys[1..] {
            let record = store.read(key).unwrap().unwrap();
            assert_eq!(
                encode_record(record.key, record.origin, record.benefit, &record.data),
                encode_record(key, ORIGIN_BACKEND, 2.0, &data(key.chunk))
            );
        }
        drop(store);
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!((opened.index_rebuilds, opened.spill_corrupt), (1, 0));
        assert_eq!(store.keys(), keys[1..], "the discarded key stays gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_ahead_of_demand() {
        let dir = tmpdir("scrub");
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store
            .write(ka, ORIGIN_BACKEND, 2.0, &sample_chunk())
            .unwrap();
        store
            .write(kb, ORIGIN_COMPUTED, 4.0, &sample_chunk())
            .unwrap();
        // Corrupt one record behind the store's back.
        flip_record_byte(&store, ka);
        let pass = store.scrub();
        assert_eq!(pass.scrub_passes, 1);
        assert_eq!(pass.spill_corrupt, 1);
        assert_eq!(pass.spill_quarantined, 1);
        assert_eq!((pass.spill_reads, pass.bytes_read), (0, 0), "no promotion");
        let two_reads = SpillCostModel::read_ms(SpillCostModel::record_bytes(2, 3)) * 2.0;
        assert_eq!(pass.spill_virtual_ms, two_reads, "both reads are charged");
        assert!(!store.contains(ka), "corrupt record quarantined");
        assert!(store.read(kb).unwrap().is_some(), "clean record untouched");
        // A second pass over the now-clean store finds nothing.
        let clean = store.scrub();
        assert_eq!(clean.spill_corrupt, 0);
        assert_eq!(clean.spill_virtual_ms, two_reads / 2.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn charged_read_rides_out_transient_errors() {
        let dir = tmpdir("retry");
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            read_error_rate: 0.4,
            seed: 11,
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        let data = sample_chunk();
        store
            .write(sample_key(), ORIGIN_BACKEND, 1.0, &data)
            .unwrap();
        let priced = SpillCostModel::record_bytes(data.n_dims(), data.len());
        let mut retried = 0u64;
        for _ in 0..20 {
            let mut delta = SpillMetrics::default();
            let rec = store
                .read_checked(sample_key(), None, &mut delta)
                .unwrap()
                .unwrap();
            assert_eq!(all_coords(&rec.data), all_coords(&data));
            let read_ms = SpillCostModel::read_ms(priced);
            if delta.spill_retries > 0 {
                retried += 1;
                assert!(
                    delta.spill_virtual_ms > read_ms,
                    "retries cost virtual time"
                );
            } else {
                assert_eq!(delta.spill_virtual_ms, read_ms, "clean reads cost the read");
            }
        }
        assert!(retried > 0, "a 40% error rate must trigger some retries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_rate_profile_is_bit_transparent_on_disk() {
        let plain_dir = tmpdir("zplain");
        let faulty_dir = tmpdir("zfault");
        let run = |dir: &Path, fault: Option<DiskFaultProfile>| {
            let mut cfg = SpillConfig::new(dir);
            if let Some(f) = fault {
                cfg = cfg.fault(f);
            }
            let mut store = SpillStore::open(cfg).unwrap();
            let d = sample_chunk();
            store
                .write(ChunkKey::new(GroupById(1), 1), ORIGIN_BACKEND, 1.0, &d)
                .unwrap();
            store
                .checkpoint(
                    [(ChunkKey::new(GroupById(2), 2), ORIGIN_COMPUTED, 2.0, &d)].into_iter(),
                )
                .unwrap();
            let _ = store.read(ChunkKey::new(GroupById(1), 1)).unwrap();
        };
        run(&plain_dir, None);
        run(&faulty_dir, Some(DiskFaultProfile::default()));
        let mut files: Vec<String> = std::fs::read_dir(&plain_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for name in files {
            assert_eq!(
                std::fs::read(plain_dir.join(&name)).unwrap(),
                std::fs::read(faulty_dir.join(&name)).unwrap(),
                "byte drift in {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&plain_dir);
        let _ = std::fs::remove_dir_all(&faulty_dir);
    }

    #[test]
    fn cost_model_charges_per_op_plus_per_byte() {
        assert!((SpillCostModel::write_ms(20_000) - 1.2).abs() < 1e-12);
        assert!((SpillCostModel::read_ms(20_000) - 1.2).abs() < 1e-12);
        assert_eq!(SpillCostModel::read_ms(0), SpillCostModel::READ_PER_OP_MS);
        // A checkpoint pays the dispatch once per chunk, the byte rate once.
        assert!((SpillCostModel::checkpoint_ms(3, 20_000) - 1.6).abs() < 1e-12);
    }
}

use std::fmt;

/// Errors raised while constructing chunkings or addressing chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Requested chunk counts must be given for every level of a dimension.
    BadChunkCountArity {
        /// Dimension name.
        dim: String,
        /// Number of levels in the dimension.
        expected: usize,
        /// Number of chunk counts supplied.
        got: usize,
    },
    /// A level must have at least one chunk and at most one chunk per value.
    BadChunkCount {
        /// Dimension name.
        dim: String,
        /// Level.
        level: usize,
        /// Requested number of chunks.
        requested: u32,
        /// Cardinality of the level.
        cardinality: u32,
    },
    /// The closure property forces at least as many chunks at a detailed
    /// level as there are chunks at the level above it.
    InfeasibleChunkCount {
        /// Dimension name.
        dim: String,
        /// Level.
        level: usize,
        /// Requested number of chunks.
        requested: u32,
        /// Minimum feasible (chunks at the level above).
        minimum: u32,
    },
    /// The total number of chunks at some group-by overflows `u64`.
    TooManyChunks {
        /// The group-by level at which the overflow occurred.
        level: Vec<u8>,
    },
    /// A chunk number is out of range for its group-by.
    ChunkOutOfRange {
        /// The group-by level.
        level: Vec<u8>,
        /// The offending chunk number.
        chunk: u64,
        /// The number of chunks at that group-by.
        max: u64,
    },
    /// A group-by id is not one of the grid's group-bys.
    UnknownGroupBy {
        /// The offending group-by id.
        gb: u32,
        /// The number of group-bys the grid has.
        group_bys: usize,
    },
    /// A cell's coordinate vector has the wrong number of dimensions.
    ///
    /// Inside the engine this invariant is a `debug_assert` on the hot
    /// [`ChunkData`](crate::ChunkData) paths; data arriving from *user
    /// input* (e.g. a delta batch) must be validated up front with this
    /// typed error so the asserts stay unreachable in release builds.
    BadCellArity {
        /// Index of the offending record in its batch.
        record: usize,
        /// Number of dimensions expected.
        expected: usize,
        /// Number of coordinates supplied.
        got: usize,
    },
    /// A cell coordinate is out of range for its dimension's cardinality.
    CellOutOfRange {
        /// Index of the offending record in its batch.
        record: usize,
        /// Dimension index.
        dim: usize,
        /// The offending coordinate value.
        value: u32,
        /// Cardinality of the dimension at the validated level.
        cardinality: u32,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadChunkCountArity { dim, expected, got } => write!(
                f,
                "dimension `{dim}`: {got} chunk counts supplied, expected {expected}"
            ),
            Self::BadChunkCount {
                dim,
                level,
                requested,
                cardinality,
            } => write!(
                f,
                "dimension `{dim}` level {level}: {requested} chunks requested for cardinality {cardinality}"
            ),
            Self::InfeasibleChunkCount {
                dim,
                level,
                requested,
                minimum,
            } => write!(
                f,
                "dimension `{dim}` level {level}: {requested} chunks requested, closure needs at least {minimum}"
            ),
            Self::TooManyChunks { level } => {
                write!(f, "chunk count overflow at group-by {level:?}")
            }
            Self::ChunkOutOfRange { level, chunk, max } => {
                write!(f, "chunk {chunk} out of range at group-by {level:?} ({max} chunks)")
            }
            Self::UnknownGroupBy { gb, group_bys } => {
                write!(f, "group-by {gb} is not one of the grid's {group_bys}")
            }
            Self::BadCellArity {
                record,
                expected,
                got,
            } => write!(
                f,
                "record {record}: {got} coordinates supplied, expected {expected}"
            ),
            Self::CellOutOfRange {
                record,
                dim,
                value,
                cardinality,
            } => write!(
                f,
                "record {record}: coordinate {value} out of range for dimension {dim} (cardinality {cardinality})"
            ),
        }
    }
}

impl std::error::Error for ChunkError {}

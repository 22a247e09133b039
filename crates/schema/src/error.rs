use std::fmt;

/// Errors raised while constructing or validating schema objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A dimension must have at least one level (the fully aggregated one).
    EmptyHierarchy {
        /// Dimension name.
        dim: String,
    },
    /// A level has zero cardinality.
    ZeroCardinality {
        /// Dimension name.
        dim: String,
        /// Offending level.
        level: usize,
    },
    /// Cardinalities must be non-decreasing from the aggregated level (0)
    /// towards the detailed level (h).
    NonMonotoneCardinality {
        /// Dimension name.
        dim: String,
        /// Level whose cardinality is smaller than the level above it.
        level: usize,
    },
    /// A roll-up map has the wrong number of entries.
    BadRollupLength {
        /// Dimension name.
        dim: String,
        /// Level the roll-up maps *from*.
        level: usize,
        /// Expected length (cardinality of `level`).
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// Roll-up maps must be monotone non-decreasing so that contiguous value
    /// ranges at a detailed level roll up to contiguous ranges at the
    /// aggregated level (required for the chunk closure property).
    NonMonotoneRollup {
        /// Dimension name.
        dim: String,
        /// Level the roll-up maps *from*.
        level: usize,
        /// First index at which monotonicity is violated.
        index: usize,
    },
    /// Every aggregated value must have at least one detailed value rolling
    /// up to it, and roll-up targets must be in range.
    NonSurjectiveRollup {
        /// Dimension name.
        dim: String,
        /// Level the roll-up maps *from*.
        level: usize,
    },
    /// A schema must contain at least one dimension.
    NoDimensions,
    /// The group-by lattice would contain more nodes than the `u32` id space
    /// supports.
    TooManyGroupBys {
        /// The number of lattice nodes the schema implies.
        total: u128,
    },
    /// The base level's cell space `Π card_d(h_d)` overflows `u64`, so cells
    /// cannot be keyed by one row-major `u64` (every other level is no
    /// larger than the base).
    TooManyCells,
    /// A level tuple's length does not match the number of dimensions.
    BadLevelArity {
        /// Expected number of dimensions.
        expected: usize,
        /// Supplied tuple length.
        got: usize,
    },
    /// A level coordinate exceeds the hierarchy size of its dimension.
    LevelOutOfRange {
        /// Dimension index.
        dim: usize,
        /// Supplied level.
        level: u8,
        /// Hierarchy size (maximum valid level).
        max: u8,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyHierarchy { dim } => {
                write!(f, "dimension `{dim}` has an empty hierarchy")
            }
            Self::ZeroCardinality { dim, level } => {
                write!(f, "dimension `{dim}` level {level} has zero cardinality")
            }
            Self::NonMonotoneCardinality { dim, level } => write!(
                f,
                "dimension `{dim}`: cardinality at level {level} is smaller than at level {}",
                level - 1
            ),
            Self::BadRollupLength {
                dim,
                level,
                expected,
                got,
            } => write!(
                f,
                "dimension `{dim}`: roll-up from level {level} has {got} entries, expected {expected}"
            ),
            Self::NonMonotoneRollup { dim, level, index } => write!(
                f,
                "dimension `{dim}`: roll-up from level {level} decreases at index {index}"
            ),
            Self::NonSurjectiveRollup { dim, level } => write!(
                f,
                "dimension `{dim}`: roll-up from level {level} is not onto the level above"
            ),
            Self::NoDimensions => write!(f, "schema has no dimensions"),
            Self::TooManyGroupBys { total } => {
                write!(f, "lattice would have {total} group-bys (max {})", u32::MAX)
            }
            Self::TooManyCells => {
                write!(f, "the base level has more than {} cells", u64::MAX)
            }
            Self::BadLevelArity { expected, got } => {
                write!(f, "level tuple has {got} entries, schema has {expected} dimensions")
            }
            Self::LevelOutOfRange { dim, level, max } => {
                write!(f, "level {level} out of range for dimension {dim} (max {max})")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

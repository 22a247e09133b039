//! Typed errors for cluster construction and execution.

use aggcache_core::CacheError;

/// Errors raised by the cluster tier.
#[derive(Debug)]
pub enum ClusterError {
    /// A node's cache manager failed executing its sub-query.
    Cache(CacheError),
    /// The builder was given no nodes.
    NoNodes,
    /// Every node is down — nothing can be routed.
    NoLiveNodes,
    /// A node's grid is not the same `Arc<ChunkGrid>` as node 0's: all
    /// nodes must be built over one shared chunk grid.
    MismatchedGrids {
        /// The offending node id.
        node: u32,
    },
    /// An invalid ring/builder parameter, or a node configuration the
    /// cluster tier does not support (the message names it).
    BadConfig(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cache(e) => write!(f, "node execution failed: {e}"),
            Self::NoNodes => write!(f, "cluster needs at least one node"),
            Self::NoLiveNodes => write!(f, "no live nodes to route to"),
            Self::MismatchedGrids { node } => {
                write!(f, "node {node} was built over a different chunk grid")
            }
            Self::BadConfig(msg) => write!(f, "bad cluster config: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for ClusterError {
    fn from(e: CacheError) -> Self {
        Self::Cache(e)
    }
}

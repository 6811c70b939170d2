//! Error type for the algorithm crate.

use mmvc_clique::CliqueError;
use mmvc_graph::GraphError;
use mmvc_mpc::MpcError;
use std::error::Error;
use std::fmt;

/// Errors produced by the paper's algorithms.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// An `ε` parameter outside the supported domain.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
        /// Why it was rejected.
        message: &'static str,
    },
    /// An algorithm parameter outside its documented domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Violated constraint.
        message: String,
    },
    /// The underlying MPC simulation failed (typically a memory-budget
    /// violation — a *finding*, not a bug: the configuration was too small
    /// for the algorithm's guarantees to apply).
    Mpc(MpcError),
    /// The underlying CONGESTED-CLIQUE simulation failed.
    Clique(CliqueError),
    /// Graph construction failed.
    Graph(GraphError),
    /// An edge-list workload file could not be loaded (driver runs with
    /// [`RunSpec::graph_file`](crate::run::RunSpec::graph_file) set).
    GraphFile {
        /// The path that failed to load.
        path: String,
        /// The underlying read failure.
        source: mmvc_graph::io::ReadError,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidEpsilon { value, message } => {
                write!(f, "invalid epsilon {value}: {message}")
            }
            CoreError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CoreError::Mpc(e) => write!(f, "MPC simulation failed: {e}"),
            CoreError::Clique(e) => write!(f, "CONGESTED-CLIQUE simulation failed: {e}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::GraphFile { path, source } => {
                write!(f, "cannot load graph file `{path}`: {source}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Mpc(e) => Some(e),
            CoreError::Clique(e) => Some(e),
            CoreError::Graph(e) => Some(e),
            CoreError::GraphFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<MpcError> for CoreError {
    fn from(e: MpcError) -> Self {
        CoreError::Mpc(e)
    }
}

impl From<CliqueError> for CoreError {
    fn from(e: CliqueError) -> Self {
        CoreError::Clique(e)
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidEpsilon {
            value: 0.9,
            message: "too large",
        };
        assert!(e.to_string().contains("0.9"));
        assert!(e.source().is_none());

        let e: CoreError = MpcError::Substrate(mmvc_substrate::SubstrateError::RoundProtocol {
            substrate: "mpc",
            message: "x",
        })
        .into();
        assert!(e.to_string().contains("MPC"));
        assert!(e.source().is_some());

        let e: CoreError = CliqueError::Substrate(mmvc_substrate::SubstrateError::RoundProtocol {
            substrate: "congested-clique",
            message: "y",
        })
        .into();
        assert!(e.source().is_some());

        let e: CoreError = GraphError::SelfLoop { vertex: 1 }.into();
        assert!(e.to_string().contains("graph"));

        // Every variant (and every crate's error enum — the audit behind
        // this test) boxes uniformly as `dyn Error` with sources wired.
        let e = CoreError::GraphFile {
            path: "missing.txt".into(),
            source: mmvc_graph::io::ReadError::Parse {
                line: 3,
                content: "x y z".into(),
            },
        };
        assert!(e.to_string().contains("missing.txt"));
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.source().unwrap().to_string().contains("line 3"));
    }
}

//! Plain-text edge-list serialization.
//!
//! The interchange format real MPC deployments feed their frameworks:
//! one `u v` pair per line, `#`-prefixed comments, blank lines ignored.
//! An optional header comment `# vertices: n` pins the vertex count
//! (otherwise it is inferred as `max id + 1`).

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use std::io::{BufRead, BufReader, Read, Write};

/// Error from reading an edge list.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is not a comment, blank, or a `u v` pair.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The edges violated graph constraints (range, self-loops).
    Graph(GraphError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse { line, content } => {
                write!(f, "cannot parse line {line}: {content:?}")
            }
            ReadError::Graph(e) => write!(f, "invalid edge list: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Graph(e) => Some(e),
            ReadError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<GraphError> for ReadError {
    fn from(e: GraphError) -> Self {
        ReadError::Graph(e)
    }
}

/// Reads a graph from edge-list text.
///
/// # Errors
///
/// [`ReadError`] on malformed lines, out-of-range vertices, or self-loops.
///
/// # Examples
///
/// ```
/// use mmvc_graph::io::read_edge_list;
/// let text = "# vertices: 5\n0 1\n1 2\n\n# a comment\n3 4\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_vertices(), 5);
/// assert_eq!(g.num_edges(), 3);
/// # Ok::<(), mmvc_graph::io::ReadError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, ReadError> {
    read_edge_list_capped(reader, None)
}

/// Like [`read_edge_list`], but refuses — *before any `n`-sized
/// allocation* — inputs whose vertex count (declared in the header or
/// implied by the largest endpoint) exceeds `max_n`. This is the
/// admission-cap entry point for servers: a 30-byte file declaring
/// `# vertices: 4000000000` must be rejected by arithmetic, not by an
/// out-of-memory abort while building the CSR arrays.
///
/// # Errors
///
/// [`ReadError`] on malformed lines, out-of-range vertices, self-loops,
/// or (as [`GraphError::InvalidParameter`]) a vertex count above the cap
/// or above the 2³² ids a [`VertexId`](crate::VertexId) can address —
/// the latter refused with or without a cap — or more than `u32::MAX / 2`
/// edge lines, which `u32` CSR offsets cannot index.
pub fn read_edge_list_capped<R: Read>(reader: R, max_n: Option<usize>) -> Result<Graph, ReadError> {
    let reader = BufReader::new(reader);
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut any_vertex = false;

    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if let Some(rest) = comment.trim().strip_prefix("vertices:") {
                if let Ok(n) = rest.trim().parse::<usize>() {
                    declared_n = Some(n);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (u, v) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), None) => match (a.parse::<u32>(), b.parse::<u32>()) {
                (Ok(u), Ok(v)) => (u, v),
                _ => {
                    return Err(ReadError::Parse {
                        line: idx + 1,
                        content: trimmed.to_string(),
                    })
                }
            },
            _ => {
                return Err(ReadError::Parse {
                    line: idx + 1,
                    content: trimmed.to_string(),
                })
            }
        };
        max_id = max_id.max(u).max(v);
        any_vertex = true;
        edges.push((u, v));
    }

    let n = declared_n.unwrap_or(if any_vertex { max_id as usize + 1 } else { 0 });
    // Vertex ids are `u32`, so no graph has more than 2^32 vertices.
    if n as u64 > 1 << 32 {
        return Err(ReadError::Graph(GraphError::InvalidParameter {
            name: "n",
            message: format!(
                "edge list declares {n} vertices, more than the 2^32 a u32 vertex id can address"
            ),
        }));
    }
    if let Some(cap) = max_n {
        if n > cap {
            return Err(ReadError::Graph(GraphError::InvalidParameter {
                name: "n",
                message: format!(
                    "edge list declares {n} vertices, exceeding the admission cap max_n = {cap}"
                ),
            }));
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Writes a graph as edge-list text (with a `# vertices:` header so
/// isolated trailing vertices round-trip).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
///
/// # Examples
///
/// ```
/// use mmvc_graph::{generators, io};
/// let g = generators::cycle(4);
/// let mut buf = Vec::new();
/// io::write_edge_list(&g, &mut buf)?;
/// let back = io::read_edge_list(buf.as_slice())?;
/// assert_eq!(g, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# vertices: {}", g.num_vertices())?;
    for e in g.edges() {
        writeln!(writer, "{} {}", e.u(), e.v())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_assorted_graphs() {
        for g in [
            generators::gnp(50, 0.2, 1).unwrap(),
            generators::star(10),
            Graph::empty(7),
            Graph::empty(0),
        ] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let back = read_edge_list(buf.as_slice()).unwrap();
            assert_eq!(g, back);
        }
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "# hello\n\n0 1\n  \n# vertices: 9\n2 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn infers_vertex_count() {
        let g = read_edge_list("0 5\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = read_edge_list("0 1\nxyz\n".as_bytes()).unwrap_err();
        match err {
            ReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(
            read_edge_list("0 1 2\n".as_bytes()).is_err(),
            "three tokens"
        );
        assert!(read_edge_list("0\n".as_bytes()).is_err(), "one token");
    }

    #[test]
    fn rejects_self_loops_and_range() {
        assert!(matches!(
            read_edge_list("3 3\n".as_bytes()).unwrap_err(),
            ReadError::Graph(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            read_edge_list("# vertices: 2\n0 5\n".as_bytes()).unwrap_err(),
            ReadError::Graph(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn admission_cap_refuses_before_allocation() {
        // A tiny input declaring an enormous vertex count must be refused
        // by arithmetic — this call would OOM if the cap ran after the
        // CSR allocation.
        let text = "# vertices: 4000000000\n0 1\n";
        let err = read_edge_list_capped(text.as_bytes(), Some(1 << 17)).unwrap_err();
        assert!(err.to_string().contains("admission cap"), "{err}");
        // An implied (max id + 1) count trips the cap the same way.
        let err = read_edge_list_capped("0 3999999999\n".as_bytes(), Some(1 << 17)).unwrap_err();
        assert!(err.to_string().contains("admission cap"), "{err}");
        // Under the cap, identical to the uncapped reader.
        let ok = read_edge_list_capped("0 5\n".as_bytes(), Some(1 << 17)).unwrap();
        assert_eq!(ok.num_vertices(), 6);
    }

    #[test]
    fn refuses_vertex_counts_beyond_u32_ids() {
        // Both headers are refused by arithmetic before anything is
        // built, with or without an admission cap.
        for header in ["18446744073709551615", "8589934592"] {
            let text = format!("# vertices: {header}\n0 1\n");
            for cap in [None, Some(1 << 17)] {
                let err = read_edge_list_capped(text.as_bytes(), cap).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ReadError::Graph(GraphError::InvalidParameter { name: "n", .. })
                    ),
                    "{header}: {err}"
                );
                assert!(err.to_string().contains("2^32"), "{err}");
            }
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}

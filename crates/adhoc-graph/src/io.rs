//! Plain-text network I/O.
//!
//! A deliberately simple, diff-friendly format so topologies can be
//! checked into test fixtures, exchanged with plotting scripts, or fed
//! to the CLI:
//!
//! ```text
//! # comment lines start with '#'
//! nodes <n>
//! pos <id> <x> <y>        (optional, one per node)
//! edge <u> <v>
//! ```

use crate::geom::Point;
use crate::graph::{Graph, NodeId};
use std::io::{BufRead, Write};

/// A parsed network file: a graph and optional positions.
#[derive(Clone, Debug)]
pub struct NetworkFile {
    /// The topology.
    pub graph: Graph,
    /// Node positions if the file carried `pos` lines (all-or-none).
    pub positions: Option<Vec<Point>>,
}

/// Serializes a graph (and optional positions) to the text format.
pub fn write_network<W: Write>(
    w: &mut W,
    graph: &Graph,
    positions: Option<&[Point]>,
) -> std::io::Result<()> {
    writeln!(w, "# khop network file")?;
    writeln!(w, "nodes {}", graph.len())?;
    if let Some(pos) = positions {
        assert_eq!(pos.len(), graph.len(), "one position per node");
        for (i, p) in pos.iter().enumerate() {
            writeln!(w, "pos {i} {} {}", p.x, p.y)?;
        }
    }
    for (u, v) in graph.edges() {
        writeln!(w, "edge {u} {v}")?;
    }
    Ok(())
}

/// Parses the text format.
///
/// # Errors
/// Returns `InvalidData` on malformed lines, counts and IDs that are
/// not integers in `0..=u32::MAX` (`1.7`, `-4`, `1e30` are rejected,
/// never truncated), a node count too large to allocate, a repeated
/// `nodes` line, out-of-range endpoints,
/// duplicate edges, or a partial position set.
pub fn read_network<R: BufRead>(r: &mut R) -> std::io::Result<NetworkFile> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut graph: Option<Graph> = None;
    let mut positions: Vec<(usize, Point)> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let mut it = line.split_whitespace();
        let tag = it.next().expect("nonempty line");
        // Counts and node IDs parse as `u32` (an integer that fits a
        // `NodeId`), coordinates as `f64`.
        let mut field = |what: &str| -> std::io::Result<&str> {
            it.next()
                .ok_or_else(|| bad(format!("line {lineno}: missing {what}")))
        };
        let integer = |what: &str, text: &str| -> std::io::Result<u32> {
            text.parse::<u32>()
                .map_err(|e| bad(format!("line {lineno}: {what} {text:?}: {e}")))
        };
        let coord = |what: &str, text: &str| -> std::io::Result<f64> {
            text.parse::<f64>()
                .map_err(|e| bad(format!("line {lineno}: {what} {text:?}: {e}")))
        };
        match tag {
            "nodes" => {
                let n = integer("count", field("count")?)?;
                if graph.is_some() {
                    return Err(bad(format!("line {lineno}: repeated 'nodes' line")));
                }
                let g = Graph::try_new(n as usize)
                    .map_err(|e| bad(format!("line {lineno}: {n} nodes: {e}")))?;
                graph = Some(g);
            }
            "pos" => {
                let v = integer("id", field("id")?)? as usize;
                let x = coord("x", field("x")?)?;
                let y = coord("y", field("y")?)?;
                positions.push((v, Point::new(x, y)));
            }
            "edge" => {
                let u = integer("u", field("u")?)?;
                let v = integer("v", field("v")?)?;
                let g = graph
                    .as_mut()
                    .ok_or_else(|| bad(format!("line {lineno}: edge before nodes")))?;
                if u as usize >= g.len() || v as usize >= g.len() || u == v {
                    return Err(bad(format!("line {lineno}: bad edge {u}-{v}")));
                }
                if g.has_edge(NodeId(u), NodeId(v)) {
                    return Err(bad(format!("line {lineno}: duplicate edge {u}-{v}")));
                }
                g.add_edge(NodeId(u), NodeId(v));
            }
            other => return Err(bad(format!("line {lineno}: unknown tag {other}"))),
        }
    }
    let graph = graph.ok_or_else(|| bad("missing 'nodes' line".into()))?;
    let positions = if positions.is_empty() {
        None
    } else {
        if positions.len() != graph.len() {
            return Err(bad(format!(
                "{} positions for {} nodes",
                positions.len(),
                graph.len()
            )));
        }
        let mut out = vec![Point::default(); graph.len()];
        let mut seen = vec![false; graph.len()];
        for (id, p) in positions {
            if id >= out.len() || seen[id] {
                return Err(bad(format!("bad or duplicate position id {id}")));
            }
            out[id] = p;
            seen[id] = true;
        }
        Some(out)
    };
    Ok(NetworkFile { graph, positions })
}

/// Convenience: write to a file path.
pub fn save(
    path: &std::path::Path,
    graph: &Graph,
    positions: Option<&[Point]>,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_network(&mut f, graph, positions)
}

/// Convenience: read from a file path.
pub fn load(path: &std::path::Path) -> std::io::Result<NetworkFile> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_network(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn round_trip(graph: &Graph, positions: Option<&[Point]>) -> NetworkFile {
        let mut buf = Vec::new();
        write_network(&mut buf, graph, positions).unwrap();
        read_network(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn round_trip_topology_only() {
        let g = gen::grid(3, 4);
        let parsed = round_trip(&g, None);
        assert!(parsed.positions.is_none());
        assert_eq!(parsed.graph.len(), g.len());
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = parsed.graph.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trip_with_positions() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let net = gen::geometric(&gen::GeometricConfig::new(30, 100.0, 6.0), &mut rng);
        let parsed = round_trip(&net.graph, Some(&net.positions));
        let pos = parsed.positions.unwrap();
        for (a, b) in net.positions.iter().zip(&pos) {
            assert!((a.x - b.x).abs() < 1e-9);
            assert!((a.y - b.y).abs() < 1e-9);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nnodes 3\n# middle\nedge 0 1\nedge 1 2\n";
        let parsed = read_network(&mut std::io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "edge 0 1\n",                    // edge before nodes
            "nodes 2\nedge 0 5\n",           // out of range
            "nodes 2\nedge 0 0\n",           // self loop
            "nodes 2\nedge 0 1\nedge 1 0\n", // duplicate
            "nodes 2\nwat 1\n",              // unknown tag
            "nodes 2\npos 0 1.0 2.0\n",      // partial positions
            "nodes x\n",                     // unparsable count
            "nodes 1e30\n",                  // not an integer
            "nodes -4\n",                    // negative count
            "nodes 2.5\n",                   // fractional count
            "nodes 4294967296\n",            // beyond u32
            "nodes 3\nnodes 3\n",            // repeated count
            "nodes 3\nedge 0 1.7\n",         // fractional endpoint
            "nodes 3\nedge -1 2\n",          // negative endpoint
            "nodes 3\nedge 0 1e0\n",         // exponent notation
            "nodes 3\npos 0.5 1 1\n",        // fractional position id
        ] {
            assert!(
                read_network(&mut std::io::Cursor::new(bad)).is_err(),
                "accepted malformed input: {bad:?}"
            );
        }
    }

    #[test]
    fn integral_fields_parse_exactly() {
        let text = "nodes 3\nedge 0 2\npos 0 1.5 -2\npos 1 0 0\npos 2 3e2 4\n";
        let parsed = read_network(&mut std::io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.graph.len(), 3);
        assert!(parsed.graph.has_edge(NodeId(0), NodeId(2)));
        assert!(!parsed.graph.has_edge(NodeId(0), NodeId(1)));
        let pos = parsed.positions.unwrap();
        assert_eq!((pos[0].x, pos[0].y, pos[2].x), (1.5, -2.0, 300.0));
        // An empty graph is well-formed; callers decide whether they
        // can work on one.
        let empty = read_network(&mut std::io::Cursor::new("nodes 0\n")).unwrap();
        assert_eq!(empty.graph.len(), 0);
    }

    #[test]
    fn file_save_load() {
        let g = gen::cycle(5);
        let dir = std::env::temp_dir().join("adhoc-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        save(&path, &g, None).unwrap();
        let parsed = load(&path).unwrap();
        assert_eq!(parsed.graph.edge_count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}

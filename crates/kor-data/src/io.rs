//! Plain-text graph interchange format.
//!
//! A dependency-free line format so generated datasets can be saved,
//! inspected, and reloaded:
//!
//! ```text
//! kor-graph v1
//! nodes <n>
//! node <id> <x> <y> <tag>[,<tag>…]
//! …
//! edges <m>
//! edge <from> <to> <objective> <budget>
//! …
//! ```
//!
//! Tags are percent-escaped for spaces/commas/percent signs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use kor_graph::{Graph, GraphBuilder, NodeId};

/// Errors from loading a graph file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file content.
    Parse(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "graph file I/O error: {e}"),
            LoadError::Parse(msg) => write!(f, "graph file parse error: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn escape(tag: &str) -> String {
    let mut out = String::with_capacity(tag.len());
    for c in tag.chars() {
        match c {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2C"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(tag: &str) -> String {
    tag.replace("%20", " ")
        .replace("%2C", ",")
        .replace("%0A", "\n")
        .replace("%25", "%")
}

/// Serializes a graph to the text format.
pub fn graph_to_string(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("kor-graph v1\n");
    let _ = writeln!(out, "nodes {}", graph.node_count());
    for v in graph.nodes() {
        let (x, y) = graph.position(v).unwrap_or((0.0, 0.0));
        let tags: Vec<String> = graph
            .keywords(v)
            .iter()
            .map(|k| escape(graph.vocab().resolve(k).expect("interned")))
            .collect();
        let _ = writeln!(out, "node {} {} {} {}", v.0, x, y, tags.join(","));
    }
    let _ = writeln!(out, "edges {}", graph.edge_count());
    for v in graph.nodes() {
        for e in graph.out_edges(v) {
            let _ = writeln!(
                out,
                "edge {} {} {} {}",
                v.0, e.node.0, e.objective, e.budget
            );
        }
    }
    out
}

/// Saves a graph to `path`.
pub fn save_graph(path: &Path, graph: &Graph) -> io::Result<()> {
    fs::write(path, graph_to_string(graph))
}

/// Parses a graph from the text format.
pub fn graph_from_str(text: &str) -> Result<Graph, LoadError> {
    let mut lines = text.lines();
    match lines.next() {
        Some("kor-graph v1") => {}
        other => return Err(LoadError::Parse(format!("bad header: {other:?}"))),
    }
    let mut builder = GraphBuilder::new();
    let node_count: usize = expect_count(lines.next(), "nodes")?;
    for i in 0..node_count {
        let line = lines
            .next()
            .ok_or_else(|| LoadError::Parse(format!("missing node line {i}")))?;
        let mut parts = line.split(' ');
        if parts.next() != Some("node") {
            return Err(LoadError::Parse(format!(
                "expected node line, got {line:?}"
            )));
        }
        let id: u32 = parse(parts.next(), "node id")?;
        if id as usize != i {
            return Err(LoadError::Parse(format!(
                "node ids must be dense, got {id} at {i}"
            )));
        }
        let x: f64 = parse(parts.next(), "x")?;
        let y: f64 = parse(parts.next(), "y")?;
        let tags_field = parts.next().unwrap_or("");
        let tags: Vec<String> = if tags_field.is_empty() {
            Vec::new()
        } else {
            tags_field.split(',').map(unescape).collect()
        };
        builder.add_node_at(tags.iter().map(String::as_str), x, y);
    }
    let edge_count: usize = expect_count(lines.next(), "edges")?;
    for i in 0..edge_count {
        let line = lines
            .next()
            .ok_or_else(|| LoadError::Parse(format!("missing edge line {i}")))?;
        let mut parts = line.split(' ');
        if parts.next() != Some("edge") {
            return Err(LoadError::Parse(format!(
                "expected edge line, got {line:?}"
            )));
        }
        let from: u32 = parse(parts.next(), "edge from")?;
        let to: u32 = parse(parts.next(), "edge to")?;
        let objective: f64 = parse(parts.next(), "objective")?;
        let budget: f64 = parse(parts.next(), "budget")?;
        builder
            .add_edge(NodeId(from), NodeId(to), objective, budget)
            .map_err(|e| LoadError::Parse(e.to_string()))?;
    }
    builder.build().map_err(|e| LoadError::Parse(e.to_string()))
}

/// Loads a graph from `path`.
pub fn load_graph(path: &Path) -> Result<Graph, LoadError> {
    graph_from_str(&fs::read_to_string(path)?)
}

/// Loads a whole world from either supported on-disk format, sniffing
/// the content: files starting with the [`crate::snapshot::MAGIC`]
/// bytes are parsed as `.korbin` binary snapshots, anything else as the
/// text format above (which carries no canned queries, so those worlds
/// load with empty query sets).
pub fn read_world_auto(path: &Path) -> Result<crate::snapshot::Snapshot, LoadError> {
    let bytes = fs::read(path)?;
    if bytes.starts_with(&crate::snapshot::MAGIC) {
        return crate::snapshot::snapshot_from_bytes(&bytes).map_err(|e| match e {
            crate::snapshot::SnapshotError::Io(e) => LoadError::Io(e),
            other => LoadError::Parse(other.to_string()),
        });
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| LoadError::Parse("graph file is neither .korbin nor UTF-8 text".into()))?;
    graph_from_str(&text).map(crate::snapshot::Snapshot::graph_only)
}

/// [`read_world_auto`] keeping only the graph — what every front end
/// (`kor query/batch`, `kor serve`'s `load_dataset`) loads
/// through, so one generated artifact feeds them all regardless of its
/// file name.
pub fn load_graph_auto(path: &Path) -> Result<Graph, LoadError> {
    read_world_auto(path).map(|w| w.graph)
}

fn expect_count(line: Option<&str>, keyword: &str) -> Result<usize, LoadError> {
    let line = line.ok_or_else(|| LoadError::Parse(format!("missing {keyword} line")))?;
    let mut parts = line.split(' ');
    if parts.next() != Some(keyword) {
        return Err(LoadError::Parse(format!(
            "expected {keyword} line, got {line:?}"
        )));
    }
    parse(parts.next(), keyword)
}

fn parse<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, LoadError> {
    field
        .ok_or_else(|| LoadError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|_| LoadError::Parse(format!("unparsable {what}: {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::figure1;

    #[test]
    fn round_trip_figure1() {
        let g = figure1();
        let text = graph_to_string(&g);
        let g2 = graph_from_str(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.nodes() {
            // tag names survive (ids may be renumbered)
            let t1: Vec<&str> = g
                .keywords(v)
                .iter()
                .map(|k| g.vocab().resolve(k).unwrap())
                .collect();
            let t2: Vec<&str> = g2
                .keywords(v)
                .iter()
                .map(|k| g2.vocab().resolve(k).unwrap())
                .collect();
            let (mut a, mut b) = (t1.clone(), t2.clone());
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{v}");
            let e1: Vec<(u32, f64, f64)> = g
                .out_edges(v)
                .map(|e| (e.node.0, e.objective, e.budget))
                .collect();
            let e2: Vec<(u32, f64, f64)> = g2
                .out_edges(v)
                .map(|e| (e.node.0, e.objective, e.budget))
                .collect();
            assert_eq!(e1, e2, "{v}");
        }
    }

    #[test]
    fn round_trip_via_file() {
        let dir = std::env::temp_dir().join("kor-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.korg");
        let g = figure1();
        save_graph(&path, &g).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.node_count(), 8);
        assert_eq!(g2.edge_count(), 12);
    }

    #[test]
    fn tags_with_spaces_and_commas_survive() {
        let mut b = kor_graph::GraphBuilder::new();
        let a = b.add_node(["shopping mall", "fish, chips", "100%"]);
        let c = b.add_node(["plain"]);
        b.add_edge(a, c, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let g2 = graph_from_str(&graph_to_string(&g)).unwrap();
        let tags: Vec<&str> = g2
            .keywords(NodeId(0))
            .iter()
            .map(|k| g2.vocab().resolve(k).unwrap())
            .collect();
        assert!(tags.contains(&"shopping mall"));
        assert!(tags.contains(&"fish, chips"));
        assert!(tags.contains(&"100%"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(graph_from_str("not a graph").is_err());
        assert!(graph_from_str("kor-graph v1\nnodes 1\n").is_err());
        assert!(graph_from_str("kor-graph v1\nnodes 0\nedges 1\nedge 0 1 1 1\n").is_err());
    }

    #[test]
    fn load_auto_sniffs_both_formats() {
        let dir = std::env::temp_dir().join(format!("kor-io-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = figure1();

        // Text format, with a misleading extension.
        let text_path = dir.join("fig1.korbin");
        save_graph(&text_path, &g).unwrap();
        assert_eq!(load_graph_auto(&text_path).unwrap().node_count(), 8);

        // Binary snapshot.
        let bin_path = dir.join("fig1.anything");
        crate::snapshot::write_snapshot(&bin_path, &crate::snapshot::Snapshot::graph_only(g))
            .unwrap();
        assert_eq!(load_graph_auto(&bin_path).unwrap().node_count(), 8);

        // Garbage is a parse error either way.
        let junk = dir.join("junk");
        std::fs::write(&junk, b"\xFF\xFE not a graph").unwrap();
        assert!(matches!(load_graph_auto(&junk), Err(LoadError::Parse(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            load_graph(Path::new("/nonexistent/x.korg")),
            Err(LoadError::Io(_))
        ));
    }
}

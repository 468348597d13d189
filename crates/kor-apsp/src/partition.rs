//! Node partitioning for landmark selection and sharding.

use std::collections::HashMap;

use kor_graph::Graph;

/// Splits `graph` into roughly `clusters` node groups and returns the
/// per-node assignment (`assignment[v] = cluster id`, ids dense in
/// `0..k` with every id non-empty).
///
/// When the graph carries positions (the generator's grid/ring worlds
/// do) the cut is geometric: a `⌈√clusters⌉ × ⌈√clusters⌉` spatial grid
/// over the bounding box, empty cells compacted away. Otherwise nodes
/// are grouped into BFS chunks of roughly `|V| / clusters` over the
/// undirected structure, so chunks stay connected where the topology
/// allows.
///
/// Landmark selection and the shard splitter both cut the graph with
/// it.
pub fn partition(graph: &Graph, clusters: usize) -> Vec<u32> {
    let clusters = clusters.max(1);
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    if graph.has_positions() {
        let side = (clusters as f64).sqrt().ceil() as usize;
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in graph.nodes() {
            let (x, y) = graph.position(v).expect("positions exist");
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let w = (max_x - min_x).max(1e-9);
        let h = (max_y - min_y).max(1e-9);
        let mut assignment = vec![0u32; n];
        for v in graph.nodes() {
            let (x, y) = graph.position(v).expect("positions exist");
            let gx = (((x - min_x) / w * side as f64) as usize).min(side - 1);
            let gy = (((y - min_y) / h * side as f64) as usize).min(side - 1);
            assignment[v.index()] = (gy * side + gx) as u32;
        }
        compact(&mut assignment);
        assignment
    } else {
        // BFS chunks over the undirected structure.
        let target = n.div_ceil(clusters);
        let mut assignment = vec![u32::MAX; n];
        let mut next_cluster = 0u32;
        for start in graph.nodes() {
            if assignment[start.index()] != u32::MAX {
                continue;
            }
            let mut queue = std::collections::VecDeque::from([start]);
            let mut filled = 0usize;
            while let Some(v) = queue.pop_front() {
                if assignment[v.index()] != u32::MAX {
                    continue;
                }
                assignment[v.index()] = next_cluster;
                filled += 1;
                if filled >= target {
                    break;
                }
                for e in graph.out_edges(v).chain(graph.in_edges(v)) {
                    if assignment[e.node.index()] == u32::MAX {
                        queue.push_back(e.node);
                    }
                }
            }
            next_cluster += 1;
        }
        assignment
    }
}

/// Renumbers cluster ids densely (grid cells may be empty).
fn compact(assignment: &mut [u32]) {
    let mut remap: HashMap<u32, u32> = HashMap::new();
    for a in assignment.iter_mut() {
        let next = remap.len() as u32;
        *a = *remap.entry(*a).or_insert(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::figure1;
    use kor_graph::GraphBuilder;

    /// The documented contract: one id per node, ids dense in `0..k`,
    /// and every id used.
    fn assert_dense_and_non_empty(graph: &Graph, clusters: usize) {
        let assignment = partition(graph, clusters);
        assert_eq!(assignment.len(), graph.node_count());
        let k = assignment.iter().max().map_or(0, |&m| m as usize + 1);
        let mut used = vec![false; k];
        for &id in &assignment {
            used[id as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "an id in 0..{k} is empty");
    }

    #[test]
    fn ids_are_dense_and_non_empty_on_both_branches() {
        // BFS branch: figure 1 carries no positions.
        let plain = figure1();
        assert!(!plain.has_positions());
        // Positional branch: nodes on the diagonal, so only the grid's
        // diagonal cells are occupied and the rest compact away.
        let mut b = GraphBuilder::new();
        for i in 0..25 {
            b.add_node_at(["t"], f64::from(i), f64::from(i));
        }
        for i in 0..24u32 {
            b.add_edge(kor_graph::NodeId(i), kor_graph::NodeId(i + 1), 1.0, 1.0)
                .unwrap();
        }
        let placed = b.build().unwrap();
        assert!(placed.has_positions());
        for clusters in [0, 1, 2, 3, 4, 9, 30] {
            assert_dense_and_non_empty(&plain, clusters);
            assert_dense_and_non_empty(&placed, clusters);
        }
        assert_eq!(partition(&plain, 1), vec![0; plain.node_count()]);
    }
}

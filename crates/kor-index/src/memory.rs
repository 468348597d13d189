//! In-memory inverted index.

use kor_graph::{Graph, KeywordId, NodeId, QueryKeywords};

/// In-memory inverted file: one sorted posting list per keyword.
///
/// Built once per graph; the KOR algorithms use it to seed
/// keyword-reachability trees (Optimization Strategy 1), to select the
/// least frequent query keyword (Optimization Strategy 2), and to collect
/// candidate nodes in the greedy algorithm.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    postings: Vec<Vec<NodeId>>,
    node_count: usize,
}

impl InvertedIndex {
    /// Builds postings by scanning every node's keyword set.
    pub fn build(graph: &Graph) -> Self {
        let mut postings = vec![Vec::new(); graph.vocab().len()];
        for (node, kw) in graph.keyword_postings() {
            postings[kw.index()].push(node);
        }
        // keyword_postings iterates nodes in ascending id order, so each
        // list is already sorted; assert in debug builds.
        debug_assert!(postings.iter().all(|p| p.windows(2).all(|w| w[0] < w[1])));
        Self {
            postings,
            node_count: graph.node_count(),
        }
    }

    /// Nodes whose keyword sets contain `kw` (ascending id order).
    pub fn postings(&self, kw: KeywordId) -> &[NodeId] {
        self.postings
            .get(kw.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of nodes containing `kw`.
    pub fn doc_frequency(&self, kw: KeywordId) -> usize {
        self.postings(kw).len()
    }

    /// Fraction of nodes containing `kw` (0 for unknown keywords).
    pub fn doc_fraction(&self, kw: KeywordId) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.doc_frequency(kw) as f64 / self.node_count as f64
        }
    }

    /// The least frequent keyword among `keywords` with its frequency
    /// (ties broken by keyword id for determinism). `None` if empty.
    pub fn least_frequent(&self, keywords: &[KeywordId]) -> Option<(KeywordId, usize)> {
        keywords
            .iter()
            .map(|&k| (k, self.doc_frequency(k)))
            .min_by_key(|&(k, df)| (df, k))
    }

    /// Posting lists for each query keyword bit, in bit order — the seed
    /// layout expected by `kor_apsp::KeywordReach`.
    pub fn query_postings(&self, query: &QueryKeywords) -> Vec<Vec<NodeId>> {
        query
            .ids()
            .iter()
            .map(|&k| self.postings(k).to_vec())
            .collect()
    }

    /// Number of nodes in the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Iterates `(keyword, postings)` for all keywords with non-empty
    /// postings, in keyword-id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &[NodeId])> {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (KeywordId(i as u32), p.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};
    use kor_graph::GraphBuilder;

    #[test]
    fn postings_on_figure1() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        assert_eq!(idx.postings(t(1)), &[v(3), v(6)]);
        assert_eq!(idx.postings(t(2)), &[v(2), v(5)]);
        assert_eq!(idx.postings(t(3)), &[v(0), v(7)]);
        assert_eq!(idx.postings(t(4)), &[v(4)]);
        assert_eq!(idx.postings(t(5)), &[v(1)]);
        assert_eq!(idx.doc_frequency(t(2)), 2);
        assert_eq!(idx.iter().count(), 5);
        assert_eq!(idx.node_count(), 8);
    }

    #[test]
    fn unknown_keyword_is_empty() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        assert_eq!(idx.postings(KeywordId(99)), &[] as &[NodeId]);
        assert_eq!(idx.doc_frequency(KeywordId(99)), 0);
        assert_eq!(idx.doc_fraction(KeywordId(99)), 0.0);
    }

    #[test]
    fn least_frequent_breaks_ties_by_id() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        // t4 and t5 both have frequency 1; smallest id wins among those
        // supplied.
        assert_eq!(idx.least_frequent(&[t(4), t(5)]), Some((t(4), 1)));
        assert_eq!(idx.least_frequent(&[t(2), t(1)]), Some((t(1), 2)));
        assert_eq!(idx.least_frequent(&[]), None);
    }

    #[test]
    fn doc_fraction() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        assert!((idx.doc_fraction(t(2)) - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn query_postings_align_with_bits() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        let q = QueryKeywords::new(vec![t(2), t(1)]).unwrap();
        let pp = idx.query_postings(&q);
        assert_eq!(pp.len(), 2);
        // bit order follows sorted keyword ids: t1 first, then t2
        assert_eq!(pp[q.bit(t(1)).unwrap() as usize], vec![v(3), v(6)]);
        assert_eq!(pp[q.bit(t(2)).unwrap() as usize], vec![v(2), v(5)]);
    }

    #[test]
    fn iter_skips_empty_postings() {
        let mut b = GraphBuilder::new();
        b.vocab_mut().intern("never-used");
        b.add_node(["used"]);
        let g = b.build().unwrap();
        let idx = InvertedIndex::build(&g);
        let terms: Vec<_> = idx.iter().map(|(k, _)| k).collect();
        assert_eq!(terms, vec![g.vocab().get("used").unwrap()]);
    }

    #[test]
    fn empty_graph_index() {
        let g = GraphBuilder::new().build().unwrap();
        let idx = InvertedIndex::build(&g);
        assert_eq!(idx.iter().count(), 0);
        assert_eq!(idx.doc_fraction(KeywordId(0)), 0.0);
    }
}

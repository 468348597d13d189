//! Keyword vocabulary interning and per-node keyword sets.

use std::collections::HashMap;

use crate::ids::KeywordId;

/// Interned vocabulary of all distinct keywords in a graph.
///
/// The paper's inverted file (§3.1) keeps "a vocabulary of all distinct
/// words appearing in the descriptions of nodes"; this is the in-memory
/// form shared by the graph and by index structures.
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    terms: Vec<String>,
    lookup: HashMap<String, KeywordId>,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its stable id. Idempotent.
    pub fn intern(&mut self, term: &str) -> KeywordId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = KeywordId(self.terms.len() as u32);
        self.terms.push(term.to_owned());
        self.lookup.insert(term.to_owned(), id);
        id
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<KeywordId> {
        self.lookup.get(term).copied()
    }

    /// The textual form of an id, or `None` if out of range.
    pub fn resolve(&self, id: KeywordId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (KeywordId(i as u32), t.as_str()))
    }
}

/// An immutable, sorted, deduplicated set of keywords attached to a node.
///
/// Node keyword sets are small (a handful of tags per location), so a
/// sorted boxed slice beats a hash set on both memory and lookup speed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeywordSet {
    ids: Box<[KeywordId]>,
}

impl KeywordSet {
    /// Builds a set from arbitrary ids (sorted and deduplicated).
    pub fn new(mut ids: Vec<KeywordId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self {
            ids: ids.into_boxed_slice(),
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether `id` is a member (binary search).
    pub fn contains(&self, id: KeywordId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted member slice.
    pub fn as_slice(&self) -> &[KeywordId] {
        &self.ids
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.ids.iter().copied()
    }
}

impl FromIterator<KeywordId> for KeywordSet {
    fn from_iter<I: IntoIterator<Item = KeywordId>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a KeywordSet {
    type Item = KeywordId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, KeywordId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("pub");
        let b = v.intern("pub");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut v = Vocab::new();
        let mall = v.intern("shopping mall");
        let jazz = v.intern("jazz");
        assert_eq!(v.resolve(mall), Some("shopping mall"));
        assert_eq!(v.resolve(jazz), Some("jazz"));
        assert_eq!(v.get("jazz"), Some(jazz));
        assert_eq!(v.get("imax"), None);
        assert_eq!(v.resolve(KeywordId(99)), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut v = Vocab::new();
        v.intern("a");
        v.intern("b");
        let collected: Vec<_> = v.iter().map(|(id, t)| (id.0, t.to_owned())).collect();
        assert_eq!(collected, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }

    #[test]
    fn keyword_set_sorts_and_dedups() {
        let s = KeywordSet::new(vec![KeywordId(3), KeywordId(1), KeywordId(3)]);
        assert_eq!(s.as_slice(), &[KeywordId(1), KeywordId(3)]);
        assert!(s.contains(KeywordId(1)));
        assert!(!s.contains(KeywordId(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn keyword_set_empty() {
        let s = KeywordSet::empty();
        assert!(s.is_empty());
        assert!(!s.contains(KeywordId(0)));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn keyword_set_from_iterator() {
        let s: KeywordSet = [KeywordId(2), KeywordId(0)].into_iter().collect();
        assert_eq!(s.as_slice(), &[KeywordId(0), KeywordId(2)]);
        let round: Vec<KeywordId> = (&s).into_iter().collect();
        assert_eq!(round, vec![KeywordId(0), KeywordId(2)]);
    }
}

//! Query-local keyword bitmasks.
//!
//! KOR search labels record the covered query keywords `L.λ` (Definition
//! 5). With at most a few query keywords (the paper cites map-query logs
//! with < 5 words and evaluates up to 10), a fixed-width `u64` bitmask
//! indexed by *query-local* bit positions is the compact representation:
//! coverage union is one `or`, the covering test one `and`-compare, and
//! dominance's mask-subset test `m & λ == λ` — all branchless. This
//! module provides the mapping between global [`KeywordId`]s and those
//! bits.

use std::fmt;

use crate::ids::KeywordId;
use crate::keyword::{KeywordSet, Vocab};

/// Maximum number of keywords in a single query (bits in the mask).
pub const MAX_QUERY_KEYWORDS: usize = 64;

/// Errors when assembling a query keyword set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKeywordsError {
    /// More than [`MAX_QUERY_KEYWORDS`] distinct keywords.
    TooMany(usize),
    /// A term is not in the vocabulary (so no node can ever cover it).
    UnknownTerm(String),
}

impl fmt::Display for QueryKeywordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryKeywordsError::TooMany(n) => {
                write!(
                    f,
                    "{n} query keywords exceed the maximum of {MAX_QUERY_KEYWORDS}"
                )
            }
            QueryKeywordsError::UnknownTerm(t) => {
                write!(f, "query keyword {t:?} does not occur in the vocabulary")
            }
        }
    }
}

impl std::error::Error for QueryKeywordsError {}

/// The set `ψ` of query keywords with a fixed keyword→bit assignment.
///
/// Bit `i` of a coverage mask corresponds to `self.ids()[i]`; ids are kept
/// sorted so equal keyword sets produce identical masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryKeywords {
    ids: Vec<KeywordId>,
    full_mask: u64,
}

impl QueryKeywords {
    /// Builds from keyword ids (sorted and deduplicated).
    pub fn new(mut ids: Vec<KeywordId>) -> Result<Self, QueryKeywordsError> {
        ids.sort_unstable();
        ids.dedup();
        if ids.len() > MAX_QUERY_KEYWORDS {
            return Err(QueryKeywordsError::TooMany(ids.len()));
        }
        let full_mask = if ids.is_empty() {
            0
        } else {
            (u64::MAX) >> (64 - ids.len() as u32)
        };
        Ok(Self { ids, full_mask })
    }

    /// Builds from textual terms resolved against `vocab`.
    pub fn from_terms<I, S>(vocab: &Vocab, terms: I) -> Result<Self, QueryKeywordsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ids = Vec::new();
        for t in terms {
            let t = t.as_ref();
            match vocab.get(t) {
                Some(id) => ids.push(id),
                None => return Err(QueryKeywordsError::UnknownTerm(t.to_owned())),
            }
        }
        Self::new(ids)
    }

    /// Number of query keywords `m`.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the query has no keyword constraint.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The mask with all query keyword bits set.
    #[inline]
    pub fn full_mask(&self) -> u64 {
        self.full_mask
    }

    /// The sorted query keyword ids.
    pub fn ids(&self) -> &[KeywordId] {
        &self.ids
    }

    /// The bit position of `id`, if it is a query keyword.
    pub fn bit(&self, id: KeywordId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// The keyword id at bit position `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.len()`.
    pub fn id_at(&self, bit: u32) -> KeywordId {
        self.ids[bit as usize]
    }

    /// The coverage mask contributed by a node keyword set `v.ψ`
    /// (merge-walk over the two sorted slices).
    pub fn mask_of(&self, node_keywords: &KeywordSet) -> u64 {
        let mut mask = 0u64;
        let mut qi = 0usize;
        for kw in node_keywords.iter() {
            while qi < self.ids.len() && self.ids[qi] < kw {
                qi += 1;
            }
            if qi == self.ids.len() {
                break;
            }
            if self.ids[qi] == kw {
                mask |= 1u64 << qi;
                qi += 1;
            }
        }
        mask
    }

    /// Whether `mask` covers all query keywords.
    #[inline]
    pub fn is_covering(&self, mask: u64) -> bool {
        mask & self.full_mask == self.full_mask
    }

    /// Keywords *not* covered by `mask`, as `(bit, id)` pairs.
    pub fn uncovered(&self, mask: u64) -> impl Iterator<Item = (u32, KeywordId)> + '_ {
        let missing = self.full_mask & !mask;
        (0..self.ids.len() as u32)
            .filter(move |b| missing & (1u64 << b) != 0)
            .map(move |b| (b, self.ids[b as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab_with(terms: &[&str]) -> Vocab {
        let mut v = Vocab::new();
        for t in terms {
            v.intern(t);
        }
        v
    }

    #[test]
    fn from_terms_resolves_and_sorts() {
        let v = vocab_with(&["pub", "mall", "cafe"]);
        let q = QueryKeywords::from_terms(&v, ["cafe", "pub"]).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.full_mask(), 0b11);
        // ids sorted ascending regardless of term order
        assert!(q.ids()[0] < q.ids()[1]);
    }

    #[test]
    fn unknown_term_is_an_error() {
        let v = vocab_with(&["pub"]);
        let err = QueryKeywords::from_terms(&v, ["zoo"]).unwrap_err();
        assert_eq!(err, QueryKeywordsError::UnknownTerm("zoo".into()));
    }

    #[test]
    fn too_many_keywords_is_an_error() {
        let ids: Vec<KeywordId> = (0..65).map(KeywordId).collect();
        assert!(matches!(
            QueryKeywords::new(ids),
            Err(QueryKeywordsError::TooMany(65))
        ));
    }

    #[test]
    fn sixty_four_keywords_full_mask() {
        let ids: Vec<KeywordId> = (0..64).map(KeywordId).collect();
        let q = QueryKeywords::new(ids).unwrap();
        assert_eq!(q.full_mask(), u64::MAX);
        assert!(q.is_covering(u64::MAX));
        assert!(!q.is_covering(u64::MAX >> 1));
    }

    #[test]
    fn masks_above_bit_31_work() {
        let ids: Vec<KeywordId> = (0..40).map(KeywordId).collect();
        let q = QueryKeywords::new(ids).unwrap();
        assert_eq!(q.full_mask(), (u64::MAX) >> 24);
        let node = KeywordSet::new(vec![KeywordId(39)]);
        assert_eq!(q.mask_of(&node), 1u64 << 39);
        let missing: Vec<u32> = q.uncovered(1u64 << 39).map(|(b, _)| b).collect();
        assert_eq!(missing.len(), 39);
        assert!(!missing.contains(&39));
    }

    #[test]
    fn empty_query_is_always_covered() {
        let q = QueryKeywords::new(vec![]).unwrap();
        assert_eq!(q.full_mask(), 0);
        assert!(q.is_covering(0));
        assert_eq!(q.uncovered(0).count(), 0);
    }

    #[test]
    fn mask_of_merges_sorted_sets() {
        let q = QueryKeywords::new(vec![KeywordId(1), KeywordId(4), KeywordId(7)]).unwrap();
        let node = KeywordSet::new(vec![KeywordId(0), KeywordId(4), KeywordId(7), KeywordId(9)]);
        // bits: kw 1 -> bit0 (absent), kw 4 -> bit1, kw 7 -> bit2
        assert_eq!(q.mask_of(&node), 0b110);
        assert!(!q.is_covering(0b110));
        let missing: Vec<_> = q.uncovered(0b110).collect();
        assert_eq!(missing, vec![(0, KeywordId(1))]);
    }

    #[test]
    fn bit_and_id_at_round_trip() {
        let q = QueryKeywords::new(vec![KeywordId(5), KeywordId(2)]).unwrap();
        for b in 0..q.len() as u32 {
            assert_eq!(q.bit(q.id_at(b)), Some(b));
        }
        assert_eq!(q.bit(KeywordId(77)), None);
    }
}

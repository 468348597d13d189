//! Inverted file index over node keywords.
//!
//! The paper (§3.1) organizes node keyword information as an inverted
//! file — a vocabulary plus one posting list per word — stored in a
//! disk-resident B+-tree. Every algorithm here reads the index from
//! memory, so this crate keeps only the in-memory form:
//! [`InvertedIndex`], the postings used on the algorithms' hot paths
//! (keyword-node lookups, document frequencies for Optimization
//! Strategy 2).

#![deny(unsafe_code)]

mod memory;

pub use memory::InvertedIndex;

//! Inverted file index over node keywords.
//!
//! The paper (§3.1) organizes node keyword information as an inverted
//! file — a vocabulary plus one posting list per word — stored in a
//! disk-resident B+-tree. This crate provides both forms:
//!
//! * [`InvertedIndex`] — the in-memory postings used on the algorithms'
//!   hot paths (keyword-node lookups, document frequencies for
//!   Optimization Strategy 2);
//! * [`DiskInvertedIndex`] — a faithful disk-resident index: a bulk-loaded
//!   B+-tree with fixed 4 KiB pages, an LRU page cache, and a postings
//!   heap ([`bptree`] contains the storage engine).
//!
//! Both forms return identical postings; tests cross-validate them.

#![deny(unsafe_code)]

pub mod bptree;
mod disk;
mod error;
mod memory;

pub use disk::DiskInvertedIndex;
pub use error::IndexError;
pub use memory::InvertedIndex;

//! Experiment harness for the KOR paper reproduction.
//!
//! One runner per table/figure of the paper's evaluation (§4): each
//! experiment regenerates the corresponding rows/series on the synthetic
//! datasets and prints them as aligned tables (plus CSV files). Absolute
//! numbers differ from the paper's 2012 testbed; the *shapes* — which
//! algorithm wins, by what factor, how curves trend — are the
//! reproduction target. No committed record of the results exists yet;
//! writing one is an open ROADMAP item.
//!
//! Run everything:
//!
//! ```bash
//! cargo run --release -p kor-bench --bin experiments
//! ```
//!
//! or a subset / the full-size profile:
//!
//! ```bash
//! cargo run --release -p kor-bench --bin experiments -- fig4-5 fig17
//! cargo run --release -p kor-bench --bin experiments -- --paper
//! ```

#![deny(unsafe_code)]

pub mod context;
pub mod experiments;
pub mod profile;
pub mod report;
pub mod runner;

pub use context::Context;
pub use profile::Profile;
pub use report::Table;

//! The multimedia metadata database substrate.
//!
//! Stands in for the University of Alberta distributed multimedia DBMS
//! [Vit 95] of the CITR news-on-demand prototype. The QoS manager queries it
//! for (a) the structure of a requested document, (b) the set of stored
//! variants of each monomedia, and (c) the block-length statistics
//! (maximum / average frame and sample sizes) that drive the §6 QoS mapping.
//!
//! The catalog is an in-memory store with JSON persistence; the
//! [`corpus`] module synthesizes realistic news-article corpora for the
//! experiments (the paper's own article base is not available — see
//! DESIGN.md substitutions).

pub mod catalog;
pub mod corpus;

pub use catalog::{Catalog, CatalogError};
pub use corpus::{CorpusBuilder, CorpusParams};

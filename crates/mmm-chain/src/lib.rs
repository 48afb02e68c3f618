//! `mmm-chain` — anchor chaining, the second stage of seed–chain–extend.
//!
//! Given the minimizer hits (*anchors*) between a query and the reference,
//! chaining finds colinear subsets that form approximate alignments
//! (minimap2 §"chaining", reproduced here with the same score function,
//! the `h`-predecessor window and max-skip heuristics), then selects
//! primary/secondary chains by query-interval overlap and assigns mapping
//! quality.

pub mod anchor;
pub mod chain;
pub mod select;

pub use anchor::{sort_anchors, Anchor};
pub use chain::{chain_anchors, Chain, ChainOpts};
pub use select::{select_chains, SelectOpts, SelectedChain};

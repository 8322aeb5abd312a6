//! Labelled undirected graph model for GraphCache.
//!
//! This crate provides the data model shared by every other GraphCache crate:
//!
//! * [`LabeledGraph`] — an immutable, CSR-encoded, vertex-labelled undirected
//!   graph, the unit of both datasets and queries (paper §3);
//! * [`GraphBuilder`] — an incremental builder that normalises edges
//!   (deduplication, sorted adjacency) before freezing;
//! * [`GraphDataset`] — a collection of graphs with summary statistics;
//! * [`io`] — a line-oriented text format compatible in spirit with the
//!   format used by GraphGrepSX/Grapes distributions;
//! * [`zipf`] — Zipf and uniform samplers used by the workload generators
//!   (paper §7.2);
//! * [`random`] — seeded random-graph construction used by the synthetic
//!   dataset generators.
//!
//! The paper (§3) models a labelled graph as `G = (V, E, l)` with a label
//! function `l : V → U`; only vertices carry labels and graphs are
//! undirected, which is exactly what this crate implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dataset;
mod error;
mod graph;
pub mod idset;
pub mod io;
pub mod random;
pub mod sizing;
pub mod zipf;

pub use builder::GraphBuilder;
pub use dataset::{DatasetStats, GraphDataset, GraphId};
pub use error::GraphError;
pub use graph::{EdgeIter, Label, LabeledGraph, NodeId, CYCLES_UNKNOWN, CYCLE_MAX};

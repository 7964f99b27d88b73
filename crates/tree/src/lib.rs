//! # ftscp-tree — spanning trees and the mutations that repair them
//!
//! The hierarchical detection algorithm "assumes a pre-constructed spanning
//! tree in the system" (§III-A) and, on a node failure, repairs it by
//! re-attaching each orphaned subtree to a live node still in the tree
//! (§III-F). This crate provides the structure:
//!
//! * [`SpanningTree`] — construction ([`SpanningTree::bfs`] over an
//!   arbitrary [`ftscp_simnet::Topology`], or the idealized
//!   [`SpanningTree::balanced_dary`] used by the complexity analysis), plus
//!   structure queries (parent/children/depth/height/degree/subtree);
//! * the mutations a repair is made of — [`SpanningTree::detach_node`],
//!   [`SpanningTree::attach`], [`SpanningTree::set_root`]. Which orphan
//!   goes where is the monitors' decision: each climbs the ancestor
//!   ladder its dead parent beaconed (`ftscp_core::membership`), and the
//!   in-memory detectors apply that same rule to a `SpanningTree`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spanning;

pub use spanning::SpanningTree;

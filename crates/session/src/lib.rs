//! # xr-session
//!
//! The streaming scene-session layer. Where the original pipeline
//! precomputed every target user's full episode up front (`TargetContext`
//! building N independent O(N²·T) passes over the same room — O(N³·T)
//! total), this crate maintains the scene **once per tick** and hands each
//! target a cheap view borrowing that shared state:
//!
//! * [`SceneEngine`] ingests one [`Frame`] (all positions at tick `t`) at a
//!   time and incrementally appends a [`SceneState`]: the symmetric pairwise
//!   distance matrix (each unordered pair measured once and mirrored —
//!   bit-exact, since IEEE negation is exact), the per-viewer occlusion
//!   structure, and the MR co-location candidate masks derived from it.
//! * [`TargetView`] borrows one `(viewer, tick)` slice of that shared state;
//!   it is what per-target code (compat wrappers, recommenders) reads.
//!
//! Per-viewer occlusion graphs are built with an angular sweep over arcs
//! sorted by center instead of the all-pairs intersection loop, so a tick
//! costs O(N² + V·(N log N + E)) shared work instead of V·O(N²) — the
//! O(N³·T) → O(N²·T) drop for a whole-scene session (V = N viewers). Every
//! candidate pair still goes through the *exact* [`xr_graph::ViewArc`]
//! intersection predicate and edges are inserted in the same lexicographic
//! order as the brute-force build, so the resulting graphs — and everything
//! derived from them — are structurally identical, not just equivalent.

pub mod engine;
pub mod prune;
pub mod serve32;

pub use engine::{Frame, SceneConfig, SceneEngine, SceneState, TargetView};
pub use prune::{CandidateSet, PruneIndex};
pub use serve32::{
    arc_f32, candidate_mask_f32, candidate_mask_f32_shortlist, distance_row_f32, occlusion_graph_f32,
    shortlist_f32, ViewArcF32,
};

/// The crowd-scale shortlist size from `AFTER_PRUNE_K`: `K > 0` makes every
/// [`SceneEngine`] build per-viewer K-candidate shortlists (see
/// [`prune::CandidateSet`]) instead of dense full-scene state; `0` — the
/// default, and the differential oracle — keeps the exact full-N path.
/// Member-level quantities are bitwise equal to the full path's, so any
/// `K ≥ N−1` reproduces it bit for bit (pinned by the `xr_check`
/// `PrunedVsFull` subject). Unset or unparsable values fall back to `0`.
/// [`SceneEngine::set_prune_k`] overrides per engine.
pub fn prune_k_from_env() -> usize {
    std::env::var("AFTER_PRUNE_K").ok().and_then(|s| s.trim().parse::<usize>().ok()).unwrap_or(0)
}

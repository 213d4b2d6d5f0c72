//! Brute-force reference implementations that production code is checked
//! against. Speed does not matter here: each reference recomputes from first
//! principles what the optimized path maintains, so a differential subject
//! can demand bit-for-bit agreement.

use poshgnn::TargetContext;
use xr_datasets::{Interface, Scenario};
use xr_graph::OcclusionConverter;

/// One target's episode context by a per-target precompute: at every tick
/// the full O(N²) pairwise visibility work is redone for this one target —
/// [`OcclusionConverter::static_graph`], the distance row, and
/// [`OcclusionConverter::physical_candidate_mask`] — instead of reading the
/// shared per-tick state of an [`xr_session::SceneEngine`]. Every field must
/// equal [`TargetContext::new`]'s bit for bit (the `StreamingVsPrecomputed`
/// subject).
///
/// # Panics
///
/// Panics when `target` is out of range or `beta ∉ [0,1]`.
pub fn precomputed_context(scenario: &Scenario, target: usize, beta: f64) -> TargetContext {
    let n = scenario.n();
    assert!(target < n, "target {target} out of range");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
    let converter = OcclusionConverter::new(scenario.body_radius);
    let mr_mask = scenario.mr_mask();
    let target_is_mr = scenario.interfaces[target] == Interface::Mr;

    let frames = scenario.trajectories.len();
    let mut occlusion = Vec::with_capacity(frames);
    let mut distances = Vec::with_capacity(frames);
    let mut candidate_mask = Vec::with_capacity(frames);
    for positions in &scenario.trajectories {
        occlusion.push(converter.static_graph(target, positions));
        distances.push((0..n).map(|w| positions[target].distance(positions[w])).collect::<Vec<f64>>());
        candidate_mask.push(converter.physical_candidate_mask(target, target_is_mr, positions, &mr_mask));
    }

    TargetContext {
        target,
        n,
        beta,
        target_is_mr,
        occlusion,
        distances,
        candidate_mask,
        shortlists: None,
        preference: scenario.preference[target].clone(),
        social: scenario.social[target].clone(),
        mr_mask,
        positions: scenario.trajectories.clone(),
        converter,
        room_diagonal: (scenario.room.width().powi(2) + scenario.room.height().powi(2)).sqrt(),
    }
}

//! The no-lookahead step view handed to recommenders.
//!
//! [`StepView`] is a window over a [`TargetContext`] that exposes only ticks
//! `0..=t`. The wrapped context is private and every accessor is either
//! pinned to the current tick or bounds-checked against it, so a recommender
//! implemented outside this crate *cannot* read future positions — the
//! stepwise contract of the online problem (Def. 2's causality: at `t` the
//! method sees `O_t^v`, `r_{t-1}`, and history, never the future) holds at
//! the type level rather than by convention.

use xr_graph::geom::Point2;
use xr_graph::{OcclusionConverter, UGraph};

use crate::problem::TargetContext;

/// A causal window over one target's episode: tick `t` and everything
/// before it, nothing after.
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    ctx: &'a TargetContext,
    t: usize,
}

impl<'a> StepView<'a> {
    /// A view of `ctx` at tick `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` exceeds the episode length.
    pub fn new(ctx: &'a TargetContext, t: usize) -> Self {
        assert!(t <= ctx.t_max(), "tick {t} beyond episode end {}", ctx.t_max());
        StepView { ctx, t }
    }

    /// The wrapped context — crate-internal only: in-crate consumers (MIA's
    /// episode pipelines) are covered by the empirical no-lookahead contract
    /// test instead of the type-level restriction.
    pub(crate) fn ctx(&self) -> &'a TargetContext {
        self.ctx
    }

    /// Current tick.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Local index of the target user.
    pub fn target(&self) -> usize {
        self.ctx.target
    }

    /// Number of participants `N`.
    pub fn n(&self) -> usize {
        self.ctx.n
    }

    /// Social-presence weight `β`.
    pub fn beta(&self) -> f64 {
        self.ctx.beta
    }

    /// Whether the target joins through MR.
    pub fn target_is_mr(&self) -> bool {
        self.ctx.target_is_mr
    }

    /// The static occlusion graph `O_t^v` at the current tick.
    pub fn occlusion(&self) -> &'a UGraph {
        &self.ctx.occlusion[self.t]
    }

    /// An occlusion graph from the causal window.
    ///
    /// # Panics
    ///
    /// Panics when `tick > t` — that would be lookahead.
    pub fn occlusion_at(&self, tick: usize) -> &'a UGraph {
        assert!(tick <= self.t, "tick {tick} is in the future of this view (t={})", self.t);
        &self.ctx.occlusion[tick]
    }

    /// Distances from the target to every participant at the current tick.
    pub fn distances(&self) -> &'a [f64] {
        &self.ctx.distances[self.t]
    }

    /// Hybrid-participation candidate mask `m_t` at the current tick.
    pub fn candidate_mask(&self) -> &'a [bool] {
        &self.ctx.candidate_mask[self.t]
    }

    /// The target's candidate shortlist at the current tick (ascending user
    /// ids), when the context came from a crowd-scale pruned engine
    /// (`AFTER_PRUNE_K > 0`); `None` on the full-N path. When
    /// present, every mask-true candidate is a member — recommenders can
    /// iterate the K members instead of all N users.
    pub fn candidates(&self) -> Option<&'a [usize]> {
        self.ctx.shortlists.as_ref().map(|s| s[self.t].as_slice())
    }

    /// Preference utilities `p(v, ·)`.
    pub fn preference(&self) -> &'a [f64] {
        &self.ctx.preference
    }

    /// Social-presence utilities `s(v, ·)`.
    pub fn social(&self) -> &'a [f64] {
        &self.ctx.social
    }

    /// MR mask over participants.
    pub fn mr_mask(&self) -> &'a [bool] {
        &self.ctx.mr_mask
    }

    /// Positions at the current tick.
    pub fn positions(&self) -> &'a [Point2] {
        &self.ctx.positions[self.t]
    }

    /// The occlusion converter (body radius) for visibility queries.
    pub fn converter(&self) -> &'a OcclusionConverter {
        &self.ctx.converter
    }

    /// Room diagonal for distance normalization.
    pub fn room_diagonal(&self) -> f64 {
        self.ctx.room_diagonal
    }

    /// Visibility of every user at the current tick under a recommendation.
    pub fn visibility(&self, recommendation: &[bool]) -> Vec<bool> {
        self.ctx.visibility(self.t, recommendation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::scenario;

    #[test]
    fn view_is_pinned_to_its_tick() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        let view = StepView::new(&ctx, 1);
        assert_eq!(view.t(), 1);
        assert_eq!(view.target(), 0);
        assert_eq!(view.n(), 4);
        assert_eq!(view.distances(), &ctx.distances[1][..]);
        assert_eq!(view.occlusion(), &ctx.occlusion[1]);
        assert_eq!(view.candidate_mask(), &ctx.candidate_mask[1][..]);
        assert_eq!(view.positions(), &ctx.positions[1][..]);
        // the causal window reaches backwards freely
        assert_eq!(view.occlusion_at(0), &ctx.occlusion[0]);
    }

    #[test]
    fn candidates_are_absent_on_the_dense_path() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        let view = StepView::new(&ctx, 1);
        assert!(view.candidates().is_none(), "dense contexts carry no shortlists");
    }

    #[test]
    #[should_panic(expected = "future")]
    fn peeking_past_the_current_tick_panics() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        let view = StepView::new(&ctx, 0);
        view.occlusion_at(1);
    }

    #[test]
    #[should_panic(expected = "beyond episode end")]
    fn view_past_episode_end_panics() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        StepView::new(&ctx, 5);
    }
}

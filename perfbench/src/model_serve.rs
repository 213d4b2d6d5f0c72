//! `poshgnn_serve`: the paper's model path, trained then served.
//!
//! Set-up builds the target contexts through the scene engine, trains
//! POSHGNN on a second scenario and imports the weights into one f32
//! serving model per target. One op is one scene tick: every target takes
//! its `soft_recommend` step. Episodes repeat, so every later episode must
//! reproduce the first bitwise; the first is also checked against an f64
//! reference pass with the same weights.

use std::sync::Arc;
use std::time::Instant;

use poshgnn::{
    evaluate_sequence, threshold_decision, top_k_overlap, AfterRecommender, Mia, PoshGnn, PoshGnnConfig,
    StepView, TargetContext,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xr_datasets::{Dataset, DatasetKind, Scenario, ScenarioConfig};
use xr_obs::ObsCtx;
use xr_tensor::{Adam, Optimizer, Tape};

use crate::layers::{self, Metrics};
use crate::{Fnv, Op, Options, Prepared, Workload, DIGEST_OPS};

const USERS: usize = 300;
const TIME_STEPS: usize = 60;
const TARGETS: usize = 32;
const TRAIN_TARGETS: usize = 4;
const EPOCHS: usize = 20;
const BETA: f64 = 0.5;
/// Every `REFERENCE_STRIDE`-th target also runs the f64 reference.
const REFERENCE_STRIDE: usize = 4;
/// Top-k of the f32-vs-f64 agreement check and its floor: the repository's
/// serve-drift floor.
const OVERLAP_K: usize = 5;
const OVERLAP_FLOOR: f64 = 0.6;
const SETUP_REPS: usize = 3;

struct Inputs {
    serve: Scenario,
    train: Scenario,
    serve_targets: Vec<usize>,
    train_targets: Vec<usize>,
    model_seed: u64,
}

fn generate(seed: u64) -> Inputs {
    let dataset = Dataset::generate(DatasetKind::Timik, seed);
    let config = |s: u64| ScenarioConfig {
        n_participants: USERS,
        time_steps: TIME_STEPS,
        seed: s,
        ..ScenarioConfig::default()
    };
    let serve = dataset.sample_scenario(&config(seed.wrapping_mul(3).wrapping_add(1)));
    let train = dataset.sample_scenario(&config(seed.wrapping_mul(3).wrapping_add(2)));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_7A46);
    let mut pick = |n: usize, count: usize| {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        ids.truncate(count);
        ids
    };
    let serve_targets = pick(USERS, TARGETS);
    let train_targets = pick(USERS, TRAIN_TARGETS);
    Inputs { serve, train, serve_targets, train_targets, model_seed: seed }
}

fn input_digest(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    for s in [&inputs.serve, &inputs.train] {
        h.u64(crate::digest_frames(s.trajectories.iter().map(Vec::as_slice)));
        for row in s.preference.iter().chain(&s.social) {
            row.iter().for_each(|&x| h.f64(x));
        }
    }
    inputs.serve_targets.iter().chain(&inputs.train_targets).for_each(|&t| h.u64(t as u64));
    h.finish()
}

/// The model configuration: f32 serving on, drift sampling off, every
/// other switch at its default.
fn model_config(seed: u64, serve_f32: bool) -> PoshGnnConfig {
    PoshGnnConfig { seed, serve_f32, drift_sample: 0, ..PoshGnnConfig::default() }
}

fn requests(targets: &[usize]) -> Vec<(usize, f64)> {
    targets.iter().map(|&t| (t, BETA)).collect()
}

struct System {
    contexts: Vec<TargetContext>,
    models: Vec<PoshGnn>,
    weights: Vec<f64>,
    train_s: f64,
}

/// Set-up as timed: contexts, training, weight import into the serving
/// models, and one warm-up step per model (the f32 weights are converted
/// lazily on the first step).
fn build(inputs: &Inputs) -> System {
    let contexts = TargetContext::batch(&inputs.serve, &requests(&inputs.serve_targets));
    let train_contexts = TargetContext::batch(&inputs.train, &requests(&inputs.train_targets));
    let mut trainer = PoshGnn::new(model_config(inputs.model_seed, true));
    let start = Instant::now();
    trainer.train(&train_contexts, EPOCHS);
    let train_s = start.elapsed().as_secs_f64();
    let weights = trainer.export_params();
    let models = contexts
        .iter()
        .map(|ctx| {
            let mut m = PoshGnn::new(model_config(inputs.model_seed, true));
            assert!(m.import_params(&weights), "trained weights fit a fresh model");
            m.begin_episode(&StepView::new(ctx, 0));
            std::hint::black_box(m.soft_recommend(ctx, 0));
            m
        })
        .collect();
    System { contexts, models, weights, train_s }
}

/// Per-layer timings of set-up from a traced replica: the context build,
/// then the training loop of `PoshGnn::train` spelled out through public
/// calls so each stage gets a span. Returns the replica's weights, which
/// must equal the untraced training's bitwise.
fn traced_setup(inputs: &Inputs, ctx: &Arc<ObsCtx>) -> Vec<f64> {
    let _guard = ctx.install();
    for (scenario, targets) in
        [(&inputs.serve, &inputs.serve_targets), (&inputs.train, &inputs.train_targets)]
    {
        let _span = xr_obs::span!("layer.session.context_build", targets = targets.len());
        std::hint::black_box(TargetContext::batch(scenario, &requests(targets)));
    }
    let contexts = TargetContext::batch(&inputs.train, &requests(&inputs.train_targets));
    let config = model_config(inputs.model_seed, true);
    let mut model = PoshGnn::new(config);
    let slabs: Vec<_> = contexts
        .iter()
        .map(|c| {
            let _span = xr_obs::span!("layer.core.mia_episode", target = c.target);
            Mia.compute_episode(c)
        })
        .collect();
    let mut adam = Adam::with_lr(config.learning_rate);
    let tape = Tape::new();
    for epoch in 0..EPOCHS {
        let _epoch = xr_obs::span!("layer.core.train_epoch", epoch = epoch);
        for (c, slab) in contexts.iter().zip(&slabs) {
            tape.reset();
            let loss = {
                let _span = xr_obs::span!("layer.core.train_forward", target = c.target);
                let loss = model.episode_loss_cached(&tape, c, slab);
                std::hint::black_box(loss.scalar());
                loss
            };
            let store = model.params_mut();
            {
                let _span = xr_obs::span!("layer.core.train_backward", target = c.target);
                loss.backward(store);
            }
            store.clip_grad_norm(config.grad_clip);
            adam.step(store);
        }
    }
    model.export_params()
}

struct PoshgnnServe {
    system: System,
    targets: Vec<usize>,
    threshold: f64,
    /// f64 reference models for every `REFERENCE_STRIDE`-th target, used
    /// in the first episode only. A fresh model starts from the zero state
    /// an episode starts from; without `begin_episode` it keeps no
    /// per-episode MIA cache, which would hold dense N×N matrices for every
    /// tick of every reference target.
    reference: Vec<(usize, PoshGnn)>,
    /// First episode's soft scores, `[t][target]`, to compare later
    /// episodes against.
    first_episode: Vec<Vec<Vec<f64>>>,
    recs: Vec<Vec<Vec<bool>>>,
    after_utility: Option<f64>,
    overlaps: Vec<f64>,
    train_s: Vec<f64>,
    digest: Fnv,
}

/// Builds the inputs from the seed, times set-up (training included) and,
/// in a traced run, times the set-up stages through a traced replica.
pub fn prepare(opts: &Options, trace: Option<&Arc<ObsCtx>>) -> Prepared {
    let inputs = generate(opts.seed);
    let input_digest = input_digest(&inputs);
    let mut train_s = Vec::new();
    let (system, setup_s) = crate::time_setup(
        opts.setup_reps(SETUP_REPS),
        || (),
        |()| {
            let system = build(&inputs);
            train_s.push(system.train_s);
            system
        },
    );
    let mut setup_failures = Vec::new();
    if let Some(ctx) = trace {
        if traced_setup(&inputs, ctx) != system.weights {
            setup_failures.push("traced training replica diverged from PoshGnn::train".to_string());
        }
    }
    let reference = (0..TARGETS)
        .step_by(REFERENCE_STRIDE)
        .map(|i| {
            let mut m = PoshGnn::new(model_config(inputs.model_seed, false));
            assert!(m.import_params(&system.weights), "trained weights fit a fresh model");
            (i, m)
        })
        .collect();
    let threshold = system.models[0].config().threshold;
    let workload = PoshgnnServe {
        system,
        targets: inputs.serve_targets.clone(),
        threshold,
        reference,
        first_episode: Vec::with_capacity(TIME_STEPS + 1),
        recs: (0..TARGETS).map(|_| Vec::with_capacity(TIME_STEPS + 1)).collect(),
        after_utility: None,
        overlaps: Vec::new(),
        train_s,
        digest: Fnv::default(),
    };
    Prepared { workload: Box::new(workload), setup_s, input_digest, setup_failures }
}

impl Workload for PoshgnnServe {
    fn op(&mut self, index: u64) -> Op {
        let ticks = (TIME_STEPS + 1) as u64;
        let (episode, t) = (index / ticks, (index % ticks) as usize);
        let contexts = &self.system.contexts;

        let start = Instant::now();
        if t == 0 {
            for (m, ctx) in self.system.models.iter_mut().zip(contexts) {
                m.begin_episode(&StepView::new(ctx, 0));
            }
        }
        let scores: Vec<Vec<f64>> = self
            .system
            .models
            .iter_mut()
            .zip(contexts)
            .map(|(m, ctx)| {
                let _span = xr_obs::span!("layer.core.serve_step", op = index);
                m.soft_recommend(ctx, t)
            })
            .collect();
        let latency_s = start.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        for (i, s) in scores.iter().enumerate() {
            if s.len() != USERS || s.iter().any(|p| !(0.0..=1.0).contains(p)) {
                failures.push(format!("target {i}: scores are not {USERS} probabilities"));
            }
        }
        if index < DIGEST_OPS {
            for (s, &target) in scores.iter().zip(&self.targets) {
                s.iter().for_each(|&x| self.digest.f64(x));
                self.digest.mask(&threshold_decision(s, target, self.threshold));
            }
        }
        if episode == 0 {
            for (i, model) in &mut self.reference {
                let ctx = &contexts[*i];
                let overlap = top_k_overlap(&scores[*i], &model.soft_recommend(ctx, t), OVERLAP_K);
                if overlap < OVERLAP_FLOOR {
                    failures.push(format!("target {i} t={t}: f32-vs-f64 top-{OVERLAP_K} overlap {overlap}"));
                }
                self.overlaps.push(overlap);
            }
            for (recs, (s, &target)) in self.recs.iter_mut().zip(scores.iter().zip(&self.targets)) {
                recs.push(threshold_decision(s, target, self.threshold));
            }
            self.first_episode.push(scores);
            if t == TIME_STEPS {
                let total: f64 =
                    contexts.iter().zip(&self.recs).map(|(c, r)| evaluate_sequence(c, r).after_utility).sum();
                self.after_utility = Some(total / TARGETS as f64);
                self.reference.clear();
            }
        } else if self.first_episode[t] != scores {
            failures.push(format!("episode {episode} t={t}: scores differ from the first episode"));
        }
        Op { latency_s, decisions: TARGETS as u64, failures }
    }

    fn decision_digest(&self) -> u64 {
        self.digest.finish()
    }

    fn results(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = vec![("train_s", crate::median(&self.train_s), "s")];
        if let Some(u) = self.after_utility {
            out.push(("after_utility", u, "utility"));
        }
        out
    }

    fn layer_metrics(&self, snap: &xr_obs::MetricsSnapshot, traced_ops: u64, out: &mut Metrics) {
        let means = [
            ("core.serve_step_ms", "layer.core.serve_step"),
            ("core.mia_episode_ms", "layer.core.mia_episode"),
            ("core.train_forward_ms", "layer.core.train_forward"),
            ("core.train_backward_ms", "layer.core.train_backward"),
            ("core.train_epoch_ms", "layer.core.train_epoch"),
        ];
        layers::put_span_means(snap, &means, out);
        out.put("session.context_build_ms", layers::span_total_ms(snap, "layer.session.context_build"), "ms");
        out.put("core.train_s", crate::median(&self.train_s), "s");
        if !self.overlaps.is_empty() {
            out.put(
                "core.topk_overlap_f32_vs_f64",
                self.overlaps.iter().sum::<f64>() / self.overlaps.len() as f64,
                "ratio",
            );
        }
        if let Some(u) = self.after_utility {
            out.put("core.after_utility", u, "utility");
        }
        layers::tensor_counters(snap, traced_ops, out);
    }
}

//! Allocation-regression guards for the training hot path and MIA's slabs.
//!
//! The episode MIA cache plus the arena tape are supposed to take the global
//! allocator out of the inner training loop: after the first epoch warms the
//! slab and the buffer pool, later epochs should run almost allocation-free.
//! This file pins that property with a counting `#[global_allocator]`
//! (integration tests are separate binaries, so the allocator is scoped to
//! this file): per-epoch allocations after epoch 1 on the cached path must
//! be at least 10× lower than on the pre-cache baseline path (MIA
//! recomputed per step on a fresh tape per episode,
//! `train_episode(&Tape::new(), ctx, None)`). It
//! also pins that an MIA slab stores only sparse operators: the bytes it
//! retains per tick stay below one dense N×N matrix.
//!
//! The counters are per thread, so tests running in parallel in the default
//! harness never see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use poshgnn::{Mia, MiaOutput, PoshGnn, PoshGnnConfig, TargetContext};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_tensor::Tape;

struct CountingAllocator;

thread_local! {
    // `const`-initialized `Cell`s without destructors: reading or bumping
    // them never allocates, so the allocator can use them re-entrantly.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds `allocations` to the calling thread's allocation count and `grown`
/// (negative on a free) to its live bytes. A block freed on another thread
/// than the one that allocated it moves bytes between the two threads'
/// `LIVE_BYTES`; the tests below allocate and free on their own thread.
fn record(allocations: u64, grown: i64) {
    // `try_with`: a thread tearing down its locals may still allocate
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + grown));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `f`'s result and the bytes the calling thread still holds for it once
/// `f` has returned: everything `f` allocated minus everything it freed.
fn retained_bytes_during<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

fn episode_ctx() -> TargetContext {
    let dataset = Dataset::generate(DatasetKind::Hubs, 7);
    let cfg = ScenarioConfig {
        n_participants: 24,
        vr_fraction: 0.5,
        time_steps: 6,
        room_side: 6.0,
        body_radius: 0.2,
        seed: 11,
    };
    let scenario = dataset.sample_scenario(&cfg);
    TargetContext::new(&scenario, 0, 0.5)
}

/// The pre-cache training baseline: `epochs` passes of uncached
/// [`PoshGnn::train_episode`] calls, MIA recomputed per step on a fresh tape
/// per episode. Returns the per-epoch mean loss, like [`PoshGnn::train`].
fn train_baseline(model: &mut PoshGnn, contexts: &[TargetContext], epochs: usize) -> Vec<f64> {
    (0..epochs)
        .map(|_| {
            let mut loss = 0.0;
            for ctx in contexts {
                loss += model.train_episode(&Tape::new(), ctx, None);
            }
            loss / contexts.len() as f64
        })
        .collect()
}

type Trainer = fn(&mut PoshGnn, &[TargetContext], usize) -> Vec<f64>;

/// Allocations of one steady-state epoch: train fresh identically seeded
/// models for 1 and 3 epochs and difference the counts, so construction,
/// slab precompute, and pool warm-up (all epoch-1 costs) cancel out.
fn per_epoch_after_first(train: Trainer, ctx: &TargetContext) -> u64 {
    let contexts = std::slice::from_ref(ctx);
    let mut one = PoshGnn::new(PoshGnnConfig::default());
    let mut three = PoshGnn::new(PoshGnnConfig::default());
    let a1 = allocations_during(|| {
        train(&mut one, contexts, 1);
    });
    let a3 = allocations_during(|| {
        train(&mut three, contexts, 3);
    });
    (a3 - a1) / 2
}

#[test]
fn cached_training_epochs_allocate_10x_less_than_baseline() {
    let ctx = episode_ctx();
    let baseline = per_epoch_after_first(train_baseline, &ctx);
    let cached = per_epoch_after_first(PoshGnn::train, &ctx);

    eprintln!("per-epoch allocations after epoch 1: baseline {baseline}, cached {cached}");
    assert!(baseline > 0, "baseline epoch made no allocations — instrumentation broken?");
    assert!(
        baseline >= 10 * cached.max(1),
        "per-epoch allocations after epoch 1: baseline {baseline} vs cached {cached} \
         — the MIA cache + tape arena must cut steady-state allocations by ≥10x"
    );
}

#[test]
fn losses_match_between_baseline_and_cached_paths() {
    // The two paths must descend the same trajectory: the cache and arena
    // are pure performance changes (bit-identical per DESIGN.md §7).
    let ctx = episode_ctx();
    let contexts = std::slice::from_ref(&ctx);
    let hb = train_baseline(&mut PoshGnn::new(PoshGnnConfig::default()), contexts, 4);
    let hc = PoshGnn::new(PoshGnnConfig::default()).train(contexts, 4);
    for (epoch, (b, c)) in hb.iter().zip(&hc).enumerate() {
        assert_eq!(b.to_bits(), c.to_bits(), "epoch {epoch} loss: baseline {b:?} vs cached {c:?}");
    }
}

#[test]
fn mia_slabs_retain_less_than_one_dense_matrix_per_tick() {
    // MIA stores only sparse operators; a single dense N×N f64 mirror per
    // tick would retain 8·N² bytes on its own
    const USERS: usize = 300;
    let dataset = Dataset::generate(DatasetKind::Timik, 3);
    let cfg = ScenarioConfig { n_participants: USERS, time_steps: 8, seed: 4, ..ScenarioConfig::default() };
    let scenario = dataset.sample_scenario(&cfg);
    let ctx = TargetContext::new(&scenario, 0, 0.5);
    let dense_bytes = (8 * USERS * USERS) as i64;
    type Episode = fn(&Mia, &TargetContext) -> Vec<Rc<MiaOutput>>;
    let paths: [(&str, Episode); 2] =
        [("compute_episode", Mia::compute_episode), ("compute_episode_fresh", Mia::compute_episode_fresh)];
    for (name, episode) in paths {
        let (slab, retained) = retained_bytes_during(|| episode(&Mia, &ctx));
        let per_tick = retained / slab.len() as i64;
        eprintln!("{name}: {per_tick} bytes retained per tick (one dense N×N matrix: {dense_bytes})");
        assert!(per_tick > 0, "{name}: the slab retained nothing — instrumentation broken?");
        assert!(
            per_tick < dense_bytes,
            "{name}: the slab retains {per_tick} bytes per tick, at least one dense {USERS}×{USERS} matrix"
        );
    }
}

//! Seeded determinism of every workload, and the layer coverage of traced
//! runs.

use perfbench::{run, Kind, Options, Outcome};

/// Enough ops for one whole `poshgnn_serve` episode (61 ticks), so its AFTER
/// utility exists, and more than the decision digest covers.
const OPS: u64 = 64;

fn short_run(kind: Kind, seed: u64, trace: bool, ops: u64) -> Outcome {
    run(&Options { kind, seed, seconds: f64::MAX, trace, max_ops: Some(ops), setup_reps: Some(1) })
}

fn fingerprint(o: &Outcome) -> (u64, u64, Option<u64>) {
    let utility = o.results.iter().find(|r| r.0 == "after_utility").map(|r| r.1.to_bits());
    (o.input_digest, o.decision_digest, utility)
}

fn check_seeding(kind: Kind) {
    let a = short_run(kind, 7, false, OPS);
    let again = short_run(kind, 7, false, OPS);
    let other = short_run(kind, 8, false, OPS);
    for o in [&a, &again, &other] {
        assert_eq!((o.attempted, o.failed), (OPS, 0), "{}: {:?}", kind.name(), o.failures);
    }
    let (fa, fb, fc) = (fingerprint(&a), fingerprint(&again), fingerprint(&other));
    assert_eq!(fa, fb, "{}: the same seed must reproduce inputs and decisions", kind.name());
    assert_ne!(fa.0, fc.0, "{}: another seed must change the inputs", kind.name());
    assert_ne!(fa.1, fc.1, "{}: another seed must change the decisions", kind.name());
    if kind == Kind::PoshgnnServe {
        assert!(fa.2.is_some(), "a whole episode ran, so the utility exists");
        assert_ne!(fa.2, fc.2, "another seed must change the AFTER utility");
    }
}

#[test]
fn rooms_fleet_is_seeded() {
    check_seeding(Kind::RoomsFleet);
}

#[test]
fn stadium_churn_is_seeded() {
    check_seeding(Kind::StadiumChurn);
}

#[test]
fn poshgnn_serve_is_seeded() {
    check_seeding(Kind::PoshgnnServe);
}

/// A traced run reports a layer's metrics where the workload enters the
/// layer and leaves them absent where it does not.
#[test]
fn traced_runs_report_the_layers_each_workload_enters() {
    let enters = |kind: Kind| -> Vec<&'static str> {
        match kind {
            Kind::RoomsFleet => {
                vec!["serve.pump_ms", "serve.pump_self_ms", "session.push_ms.small", "session.decide_ms"]
            }
            Kind::StadiumChurn => {
                vec!["serve.pump_ms", "session.push_ms.stadium", "prune.index_build_ms", "prune.nearest_k_ms"]
            }
            Kind::PoshgnnServe => {
                vec![
                    "core.serve_step_ms",
                    "core.train_forward_ms",
                    "core.train_backward_ms",
                    "session.context_build_ms",
                ]
            }
        }
    };
    let bypasses = |kind: Kind| -> Vec<&'static str> {
        match kind {
            Kind::RoomsFleet => vec![
                "prune.index_build_ms",
                "prune.nearest_k_ms",
                "core.serve_step_ms",
                "core.train_epoch_ms",
            ],
            Kind::StadiumChurn => vec!["session.push_ms.small", "core.serve_step_ms", "core.mia_episode_ms"],
            Kind::PoshgnnServe => vec!["serve.pump_ms", "session.push_ms.stadium", "prune.index_build_ms"],
        }
    };
    for kind in Kind::ALL {
        let o = short_run(kind, 3, true, 32);
        assert_eq!(o.failed, 0, "{}: {:?}", kind.name(), o.failures);
        let m = &o.metrics;
        for &(name, _) in perfbench::layers::CATALOGUE {
            assert!(m.get(name).is_some_and(f64::is_finite), "{}: {name} missing", kind.name());
        }
        for name in enters(kind) {
            assert!(
                !m.absent().contains(&name) && m.get(name) > Some(0.0),
                "{}: {name} not measured",
                kind.name()
            );
        }
        for name in bypasses(kind) {
            assert!(m.absent().contains(&name), "{}: {name} should be absent", kind.name());
        }
    }
}

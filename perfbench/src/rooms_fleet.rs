//! `rooms_fleet`: many small social rooms on one `RoomServer`.
//!
//! 220 dense rooms in three size classes, each fed ORCA walks reshaped so
//! that about one user in ten moves per frame. Frames are generated once and
//! replayed forward then backward, so motion stays coherent for any run
//! length. One op is one round: one frame per room, then `pump`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_crowd::Room as Floor;
use xr_datasets::{generate_trajectories_with_motion, MotionProfile};
use xr_graph::Point2;
use xr_serve::{decide_topk_f64, RoomConfig, RoomId, RoomServer, ServeLevel, ServerStats};
use xr_session::{Frame, SceneConfig, SceneEngine};

use crate::layers::{self, Metrics};
use crate::{Fnv, Op, Options, Prepared, Workload, DIGEST_OPS};

/// A room size class, with the span and metric its pushes are timed under.
struct Class {
    rooms: usize,
    users: usize,
    viewers: usize,
    span: &'static str,
    metric: &'static str,
}

const CLASSES: [Class; 3] = [
    Class {
        rooms: 192,
        users: 12,
        viewers: 3,
        span: "layer.session.push.small",
        metric: "session.push_ms.small",
    },
    Class {
        rooms: 24,
        users: 48,
        viewers: 8,
        span: "layer.session.push.medium",
        metric: "session.push_ms.medium",
    },
    Class {
        rooms: 4,
        users: 160,
        viewers: 16,
        span: "layer.session.push.large",
        metric: "session.push_ms.large",
    },
];
/// Users per square metre: every class is as crowded as the paper's rooms.
const DENSITY: f64 = 1.5;
/// Distinct frames generated per room (replayed forward then backward).
const FRAMES: usize = 96;
/// Rounds pumped during set-up, before the first timed op.
const WARMUP_ROUNDS: usize = 4;
/// Recommendations per viewer.
const TOP_K: usize = 5;
const BODY_RADIUS: f64 = 0.25;
const SETUP_REPS: usize = 15;

struct RoomInput {
    class: usize,
    config: RoomConfig,
    frames: Vec<Vec<Point2>>,
}

/// Frame index of round `round`: forward through the frames, then back.
fn ping_pong(round: usize) -> usize {
    let period = 2 * (FRAMES - 1);
    let r = round % period;
    if r < FRAMES {
        r
    } else {
        period - r
    }
}

fn generate(seed: u64) -> Vec<RoomInput> {
    let profile = MotionProfile { max_step: Some(0.05), dwell_prob: 0.9, ..MotionProfile::default() };
    let mut rooms = Vec::new();
    for (class, c) in CLASSES.iter().enumerate() {
        let (n, side) = (c.users, (c.users as f64 / DENSITY).sqrt());
        for _ in 0..c.rooms {
            let room_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rooms.len() as u64;
            let mut rng = StdRng::seed_from_u64(room_seed);
            let frames = generate_trajectories_with_motion(
                n,
                FRAMES - 1,
                Floor::new(side, side),
                BODY_RADIUS,
                &profile,
                &mut rng,
            );
            let scene = SceneConfig {
                body_radius: BODY_RADIUS,
                mr_mask: (0..n).map(|_| rng.gen_bool(0.5)).collect(),
                room_diagonal: side * std::f64::consts::SQRT_2,
            };
            let config =
                RoomConfig { top_k: TOP_K, ..RoomConfig::new(n, scene, crate::spread_viewers(n, c.viewers)) };
            rooms.push(RoomInput { class, config, frames });
        }
    }
    rooms
}

fn round_frames(rooms: &[RoomInput], round: usize) -> Vec<Frame> {
    let fi = ping_pong(round);
    rooms.iter().map(|r| Frame::new(r.frames[fi].clone())).collect()
}

/// Admits every room and pumps the warm-up rounds.
fn build(rooms: &[RoomInput], warmup: Vec<Vec<Frame>>) -> (RoomServer, Vec<RoomId>) {
    let mut server = RoomServer::new(crate::server_config());
    let ids: Vec<RoomId> =
        rooms.iter().map(|r| server.admit(r.config.clone()).expect("room configs are valid")).collect();
    for frames in warmup {
        for (&id, frame) in ids.iter().zip(frames) {
            server.enqueue(id, frame);
        }
        server.pump();
    }
    (server, ids)
}

/// Bare engines fed the same frames as the rooms: the reference the room
/// decisions must equal bitwise, and the place the traced run times
/// `SceneEngine::push` and the decision per size class.
struct Shadow {
    engines: Vec<SceneEngine>,
    prev_round: usize,
    movers: u64,
    room_frames: u64,
    edges: u64,
    viewer_frames: u64,
}

impl Shadow {
    fn new(rooms: &[RoomInput]) -> Shadow {
        let engines = rooms
            .iter()
            .map(|r| {
                let mut e = crate::bare_engine(&r.config);
                for round in 0..WARMUP_ROUNDS {
                    e.push(Frame::new(r.frames[ping_pong(round)].clone()));
                }
                e
            })
            .collect();
        Shadow {
            engines,
            prev_round: WARMUP_ROUNDS - 1,
            movers: 0,
            room_frames: 0,
            edges: 0,
            viewer_frames: 0,
        }
    }

    /// Replays round `round` and compares each room's decision with the
    /// bare engine's.
    fn replay(
        &mut self,
        rooms: &[RoomInput],
        round: usize,
        op: u64,
        got: &[Vec<Vec<bool>>],
        failures: &mut Vec<String>,
    ) {
        let traced = xr_obs::is_active();
        let (fi, prev) = (ping_pong(round), ping_pong(self.prev_round));
        self.prev_round = round;
        for (i, (room, engine)) in rooms.iter().zip(&mut self.engines).enumerate() {
            let frame = Frame::new(room.frames[fi].clone());
            let t = {
                let _span = xr_obs::span!(CLASSES[room.class].span, op = op);
                engine.push(frame)
            };
            let decided: Vec<Vec<bool>> = {
                let _span = xr_obs::span!("layer.session.decide", op = op);
                engine
                    .viewers()
                    .iter()
                    .map(|&v| {
                        let view = engine.view(v, t);
                        decide_topk_f64(view.candidate_mask(), view.distances(), room.config.top_k)
                    })
                    .collect()
            };
            if got.get(i) != Some(&decided) {
                failures.push(format!("room {i}: decisions differ from a bare SceneEngine replay"));
            }
            if traced {
                let (now, before) = (&room.frames[fi], &room.frames[prev]);
                self.movers += now
                    .iter()
                    .zip(before)
                    .filter(|(a, b)| a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits())
                    .count() as u64;
                self.room_frames += 1;
                for &v in engine.viewers() {
                    self.edges += engine.view(v, t).occlusion().edge_count() as u64;
                    self.viewer_frames += 1;
                }
            }
        }
    }
}

struct RoomsFleet {
    rooms: Vec<RoomInput>,
    server: RoomServer,
    ids: Vec<RoomId>,
    round: usize,
    ops: u64,
    stats_after_setup: ServerStats,
    digest: Fnv,
    shadow: Option<Shadow>,
}

/// Builds the inputs from the seed, times set-up, and warms up.
pub fn prepare(opts: &Options) -> Prepared {
    let rooms = generate(opts.seed);
    let input_digest = {
        let mut h = Fnv::default();
        for r in &rooms {
            h.u64(crate::digest_frames(r.frames.iter().map(Vec::as_slice)));
            h.mask(&r.config.scene.mr_mask);
        }
        h.finish()
    };
    let ((server, ids), setup_s) = crate::time_setup(
        opts.setup_reps(SETUP_REPS),
        || (0..WARMUP_ROUNDS).map(|r| round_frames(&rooms, r)).collect(),
        |warmup| build(&rooms, warmup),
    );
    let shadow = opts.trace.then(|| Shadow::new(&rooms));
    let stats_after_setup = server.stats();
    let workload = RoomsFleet {
        rooms,
        server,
        ids,
        round: WARMUP_ROUNDS,
        ops: 0,
        stats_after_setup,
        digest: Fnv::default(),
        shadow,
    };
    Prepared { workload: Box::new(workload), setup_s, input_digest, setup_failures: Vec::new() }
}

impl Workload for RoomsFleet {
    fn op(&mut self, index: u64) -> Op {
        let frames = {
            let _span = xr_obs::span!("layer.gen.frame", op = index);
            round_frames(&self.rooms, self.round)
        };
        let start = Instant::now();
        let seqs: Vec<Option<u64>> = {
            let _span = xr_obs::span!("layer.serve.enqueue", op = index);
            self.ids.iter().zip(frames).map(|(&id, frame)| self.server.enqueue(id, frame)).collect()
        };
        let report = {
            let _span = xr_obs::span!("layer.serve.pump", op = index);
            self.server.pump()
        };
        let latency_s = start.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        if report.rooms.len() != self.rooms.len() {
            failures.push(format!("{} of {} rooms answered", report.rooms.len(), self.rooms.len()));
        }
        let mut decisions = 0u64;
        let mut got = Vec::with_capacity(report.rooms.len());
        for (i, drain) in report.rooms.iter().enumerate() {
            let cfg = &self.rooms[i].config;
            match drain.decisions.as_slice() {
                [d] if drain.room == self.ids[i] && Some(d.seq) == seqs[i] && d.level == ServeLevel::Full => {
                    for (slot, picks) in d.per_viewer.iter().enumerate() {
                        let v = cfg.viewers[slot];
                        let count = picks.iter().filter(|&&p| p).count();
                        if picks.len() != cfg.n || count > cfg.top_k || picks[v] {
                            failures.push(format!("room {i} viewer {v}: {count} picks, self={}", picks[v]));
                        }
                        if index < DIGEST_OPS {
                            self.digest.mask(picks);
                        }
                    }
                    decisions += d.per_viewer.len() as u64;
                    got.push(d.per_viewer.clone());
                }
                ds => {
                    failures
                        .push(format!("room {i}: {} decisions, not one in sequence at full level", ds.len()));
                    got.push(Vec::new());
                }
            }
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.replay(&self.rooms, self.round, index, &got, &mut failures);
        }
        self.round += 1;
        self.ops += 1;
        Op { latency_s, decisions, failures }
    }

    fn decision_digest(&self) -> u64 {
        self.digest.finish()
    }

    fn results(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }

    fn layer_metrics(&self, snap: &xr_obs::MetricsSnapshot, traced_ops: u64, out: &mut Metrics) {
        let mut session_spans: Vec<&str> = CLASSES.iter().map(|c| c.span).collect();
        session_spans.push("layer.session.decide");
        let at_setup = self.stats_after_setup;
        layers::serve_metrics(snap, traced_ops, &session_spans, self.server.stats(), at_setup, self.ops, out);
        let mut means: Vec<(&str, &str)> = CLASSES.iter().map(|c| (c.metric, c.span)).collect();
        means.extend([("session.decide_ms", "layer.session.decide"), ("gen.frame_ms", "layer.gen.frame")]);
        layers::put_span_means(snap, &means, out);
        if let Some(s) = &self.shadow {
            out.put("session.movers_per_frame", s.movers as f64 / s.room_frames.max(1) as f64, "count");
            let edges = s.edges as f64 / s.viewer_frames.max(1) as f64;
            out.put("session.occlusion_edges_per_viewer", edges, "count");
        }
        layers::session_counters(snap, out);
    }
}

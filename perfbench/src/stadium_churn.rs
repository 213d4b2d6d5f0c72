//! `stadium_churn`: one 20k-user stadium room on the pruned path.
//!
//! The room serves 256 viewers from K=64 shortlists while the venue
//! simulator moves most users every frame and parks, rejoins and teleports
//! a few. Frames are generated before each op, outside its timer. One op is
//! one frame: enqueue, then `pump`.

use std::time::Instant;

use xr_datasets::{VenueConfig, VenueSim};
use xr_graph::Point2;
use xr_serve::{RoomConfig, RoomId, RoomServer, ServeLevel, ServerStats};
use xr_session::{Frame, PruneIndex, SceneConfig, SceneEngine};

use crate::layers::{self, Metrics};
use crate::{Fnv, Op, Options, Prepared, Workload, DIGEST_OPS};

const USERS: usize = 20_000;
const VIEWERS: usize = 256;
const PRUNE_K: usize = 64;
const TOP_K: usize = 5;
/// Frames pumped during set-up, before the first timed op.
const WARMUP_FRAMES: usize = 4;
/// Viewers per op whose shortlist is checked against brute force.
const SAMPLED_VIEWERS: usize = 4;
const SETUP_REPS: usize = 15;

/// The benchmark's own K-nearest: every other user ordered by
/// `(distance, id)`, first `k` kept, returned in id order (the order
/// shortlists store their members in).
fn brute_force_nearest(positions: &[Point2], viewer: usize, k: usize) -> Vec<u32> {
    let origin = positions[viewer];
    let mut all: Vec<(f64, u32)> = positions
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != viewer)
        .map(|(w, p)| (origin.distance(*p), w as u32))
        .collect();
    let k = k.min(all.len());
    let order = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if k < all.len() {
        all.select_nth_unstable_by(k, order);
    }
    let mut ids: Vec<u32> = all[..k].iter().map(|&(_, w)| w).collect();
    ids.sort_unstable();
    ids
}

fn room_config(venue: &VenueConfig) -> RoomConfig {
    let scene = SceneConfig {
        body_radius: venue.body_radius,
        mr_mask: venue.mr_mask(),
        room_diagonal: venue.room_diagonal(),
    };
    RoomConfig {
        top_k: TOP_K,
        prune_k: Some(PRUNE_K),
        ..RoomConfig::new(USERS, scene, crate::spread_viewers(USERS, VIEWERS))
    }
}

/// Bare pruned engine fed the room's frames: the bitwise reference for the
/// room's decisions and where the traced run times push, decide, and the
/// prune layer's index build and K-nearest queries.
struct Shadow {
    engine: SceneEngine,
    nearest: Vec<(f64, u32)>,
    prev: Vec<Point2>,
    movers: u64,
    frames: u64,
    edges: u64,
    visible_frac: f64,
    viewer_frames: u64,
}

impl Shadow {
    fn new(config: &RoomConfig, warmup: &[Vec<Point2>]) -> Shadow {
        let mut engine = crate::bare_engine(config);
        for f in warmup {
            engine.push(Frame::new(f.clone()));
        }
        let prev = warmup.last().expect("warm-up frames").clone();
        Shadow {
            engine,
            nearest: Vec::new(),
            prev,
            movers: 0,
            frames: 0,
            edges: 0,
            visible_frac: 0.0,
            viewer_frames: 0,
        }
    }

    fn replay(
        &mut self,
        positions: &[Point2],
        op: u64,
        got: &[Vec<bool>],
        top_k: usize,
        failures: &mut Vec<String>,
    ) {
        let t = {
            let _span = xr_obs::span!("layer.session.push.stadium", op = op);
            self.engine.push(Frame::new(positions.to_vec()))
        };
        let engine = &self.engine;
        let decided: Vec<Vec<u32>> = {
            let _span = xr_obs::span!("layer.session.decide", op = op);
            engine
                .viewers()
                .iter()
                .map(|&v| engine.view(v, t).candidates().expect("pruned view").decide_topk(top_k))
                .collect()
        };
        for (slot, picks) in decided.iter().enumerate() {
            let mut want = vec![false; engine.n()];
            for &w in picks {
                want[w as usize] = true;
            }
            if got.get(slot) != Some(&want) {
                failures.push(format!("viewer slot {slot}: decision differs from a bare SceneEngine replay"));
            }
        }
        if !xr_obs::is_active() {
            return;
        }
        let index = {
            let _span = xr_obs::span!("layer.prune.index_build", op = op);
            PruneIndex::build(positions)
        };
        {
            let _span = xr_obs::span!("layer.prune.nearest_k", op = op);
            for &v in engine.viewers() {
                index.nearest_k_into(positions, v, PRUNE_K, &mut self.nearest);
            }
        }
        self.movers += positions
            .iter()
            .zip(&self.prev)
            .filter(|(a, b)| a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits())
            .count() as u64;
        self.frames += 1;
        for &v in engine.viewers() {
            let cs = engine.view(v, t).candidates().expect("pruned view");
            self.edges += cs.edges().len() as u64;
            self.visible_frac += cs.mask().iter().filter(|&&m| m).count() as f64 / cs.len().max(1) as f64;
            self.viewer_frames += 1;
        }
        self.prev.clear();
        self.prev.extend_from_slice(positions);
    }
}

struct StadiumChurn {
    sim: VenueSim,
    config: RoomConfig,
    server: RoomServer,
    id: RoomId,
    ops: u64,
    gen_s: f64,
    stats_after_setup: ServerStats,
    digest: Fnv,
    shadow: Option<Shadow>,
}

/// Builds the venue from the seed, times set-up, and warms up.
pub fn prepare(opts: &Options) -> Prepared {
    let venue = VenueConfig::stadium(USERS, opts.seed);
    let mut sim = VenueSim::new(venue);
    let warmup: Vec<Vec<Point2>> = (0..WARMUP_FRAMES).map(|_| sim.next_frame()).collect();
    let config = room_config(&venue);
    let input_digest = {
        let mut h = Fnv::default();
        h.u64(crate::digest_frames(warmup.iter().map(Vec::as_slice)));
        h.mask(&config.scene.mr_mask);
        h.finish()
    };
    let ((server, id), setup_s) = crate::time_setup(
        opts.setup_reps(SETUP_REPS),
        || warmup.iter().map(|f| Frame::new(f.clone())).collect::<Vec<_>>(),
        |frames| {
            let mut server = RoomServer::new(crate::server_config());
            let id = server.admit(config.clone()).expect("the stadium config is valid");
            for frame in frames {
                server.enqueue(id, frame);
                server.pump();
            }
            (server, id)
        },
    );
    let shadow = opts.trace.then(|| Shadow::new(&config, &warmup));
    let stats_after_setup = server.stats();
    let workload = StadiumChurn {
        sim,
        config,
        server,
        id,
        ops: 0,
        gen_s: 0.0,
        stats_after_setup,
        digest: Fnv::default(),
        shadow,
    };
    Prepared { workload: Box::new(workload), setup_s, input_digest, setup_failures: Vec::new() }
}

impl StadiumChurn {
    /// Checks one decision against the room's own shortlists: at most
    /// `top_k` picks, never the viewer, always inside the shortlist; and on
    /// sampled viewers, the shortlist against brute force.
    fn check(&self, index: u64, positions: &[Point2], per_viewer: &[Vec<bool>], failures: &mut Vec<String>) {
        let cfg = &self.config;
        let k = PRUNE_K.min(cfg.n - 1);
        let sampled: Vec<usize> = (0..SAMPLED_VIEWERS)
            .map(|j| (index as usize * SAMPLED_VIEWERS + j) % cfg.viewers.len())
            .collect();
        self.server.with_room(self.id, |room| {
            let engine = room.engine();
            let t = engine.ticks() - 1;
            for (slot, picks) in per_viewer.iter().enumerate() {
                let v = cfg.viewers[slot];
                let Some(cs) = engine.view(v, t).candidates() else {
                    failures.push(format!("viewer {v}: no shortlist"));
                    continue;
                };
                let chosen: Vec<usize> = (0..picks.len()).filter(|&w| picks[w]).collect();
                if picks.len() != cfg.n || chosen.len() > cfg.top_k || picks[v] {
                    failures.push(format!("viewer {v}: {} picks, self={}", chosen.len(), picks[v]));
                }
                if let Some(w) = chosen.iter().find(|&&w| !cs.contains(w)) {
                    failures.push(format!("viewer {v}: pick {w} outside the shortlist"));
                }
                if sampled.contains(&slot) && cs.ids() != brute_force_nearest(positions, v, k).as_slice() {
                    failures.push(format!("viewer {v}: shortlist differs from brute-force {k}-nearest"));
                }
            }
        });
    }
}

impl Workload for StadiumChurn {
    fn op(&mut self, index: u64) -> Op {
        let gen_start = Instant::now();
        let positions = {
            let _span = xr_obs::span!("layer.gen.frame", op = index);
            self.sim.next_frame()
        };
        self.gen_s += gen_start.elapsed().as_secs_f64();
        let frame = Frame::new(positions.clone());

        let start = Instant::now();
        let seq = {
            let _span = xr_obs::span!("layer.serve.enqueue", op = index);
            self.server.enqueue(self.id, frame)
        };
        let report = {
            let _span = xr_obs::span!("layer.serve.pump", op = index);
            self.server.pump()
        };
        let latency_s = start.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        let mut decisions = 0u64;
        let mut got: &[Vec<bool>] = &[];
        match report.rooms.as_slice() {
            [drain] => match drain.decisions.as_slice() {
                [d] if Some(d.seq) == seq && d.level == ServeLevel::Full => {
                    decisions = d.per_viewer.len() as u64;
                    got = &d.per_viewer;
                    self.check(index, &positions, got, &mut failures);
                    if index < DIGEST_OPS {
                        for picks in got {
                            self.digest.mask(picks);
                        }
                    }
                }
                ds => failures.push(format!("{} decisions, not one in sequence at full level", ds.len())),
            },
            rs => failures.push(format!("{} rooms answered, not one", rs.len())),
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.replay(&positions, index, got, self.config.top_k, &mut failures);
        }
        self.ops += 1;
        Op { latency_s, decisions, failures }
    }

    fn decision_digest(&self) -> u64 {
        self.digest.finish()
    }

    fn results(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![("gen_frame_ms", self.gen_s * 1e3 / self.ops.max(1) as f64, "ms")]
    }

    fn layer_metrics(&self, snap: &xr_obs::MetricsSnapshot, traced_ops: u64, out: &mut Metrics) {
        let session_spans = ["layer.session.push.stadium", "layer.session.decide"];
        let at_setup = self.stats_after_setup;
        layers::serve_metrics(snap, traced_ops, &session_spans, self.server.stats(), at_setup, self.ops, out);
        let means = [
            ("session.push_ms.stadium", "layer.session.push.stadium"),
            ("session.decide_ms", "layer.session.decide"),
            ("prune.index_build_ms", "layer.prune.index_build"),
            ("prune.nearest_k_ms", "layer.prune.nearest_k"),
            ("gen.frame_ms", "layer.gen.frame"),
        ];
        layers::put_span_means(snap, &means, out);
        if let Some(s) = &self.shadow {
            let per_viewer = |x: f64| x / s.viewer_frames.max(1) as f64;
            out.put("session.movers_per_frame", s.movers as f64 / s.frames.max(1) as f64, "count");
            out.put("session.occlusion_edges_per_viewer", per_viewer(s.edges as f64), "count");
            out.put("prune.shortlist_visible_frac", per_viewer(s.visible_frac), "ratio");
        }
        layers::session_counters(snap, out);
        let views = layers::counter(snap, "session.views_served");
        if views > 0 {
            let reused = layers::counter(snap, "session.prune.shortlists_reused");
            out.put("session.prune.shortlists_reused_frac", reused as f64 / views as f64, "ratio");
        }
    }
}

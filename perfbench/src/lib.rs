//! Closed-loop end-to-end benchmark of the AFTER stack, with a traced
//! per-layer breakdown. See `README.md` in this directory for the metrics,
//! the workloads and why each was chosen.
//!
//! The driver here is shared by the three workloads: it builds the
//! workload's inputs from the seed (untimed), times the workload's set-up
//! several times, then runs ops back to back (closed loop, one thread) for
//! the requested number of seconds. A traced run alternates untraced and
//! traced blocks of ops over its first [`TRACE_WINDOW`] ops, so the tracing
//! overhead is measured against the same stretch of host time, then runs
//! untraced to the end, still checking every output.

pub mod layers;
pub mod model_serve;
pub mod rooms_fleet;
pub mod stadium_churn;

use std::sync::Arc;
use std::time::Instant;

use xr_obs::ObsCtx;

/// Ops whose decisions feed the decision digest. Runs are time-bounded, so
/// the digest covers a fixed prefix: two runs at one seed see the same
/// prefix whatever the host speed.
pub const DIGEST_OPS: u64 = 48;

/// Fewest ops a run makes, whatever `--seconds` says, so that every
/// percentile rests on a few hundred samples. At the benchmark's run length
/// every workload makes well over 1000 ops, so `tick_p1_ms` sits above at
/// least ten faster ones.
pub const MIN_OPS: u64 = 200;

/// Ops per block in a traced run; blocks alternate untraced / traced.
const TRACE_BLOCK: u64 = 8;

/// Ops at the start of a traced run that alternate between untraced and
/// traced blocks; later ops run untraced. This bounds the spans kept in
/// memory and written out, whatever `--seconds` says.
const TRACE_WINDOW: u64 = 256;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 220 small dense rooms on one `RoomServer`.
    RoomsFleet,
    /// One 20k-user pruned stadium room under churn.
    StadiumChurn,
    /// POSHGNN f32 serving of 32 targets, after training.
    PoshgnnServe,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::RoomsFleet, Kind::StadiumChurn, Kind::PoshgnnServe];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RoomsFleet => "rooms_fleet",
            Kind::StadiumChurn => "stadium_churn",
            Kind::PoshgnnServe => "poshgnn_serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One finished op as the driver sees it.
pub struct Op {
    /// Wall time of the calls into the program only: input synthesis,
    /// output checks and traced-run shadow work are outside it.
    pub latency_s: f64,
    /// Per-viewer decisions the op produced.
    pub decisions: u64,
    /// Output-check failures of this op; empty means the op succeeded.
    pub failures: Vec<String>,
}

/// A workload after set-up, ready to run ops.
pub trait Workload {
    /// Runs op `index` (0-based), including its output checks. In a traced
    /// run the driver installs the trace context around some ops; the
    /// workload's spans record only then.
    fn op(&mut self, index: u64) -> Op;

    /// FNV-1a digest of the decisions of the first [`DIGEST_OPS`] ops.
    fn decision_digest(&self) -> u64;

    /// Workload-specific results for the report (not timings), e.g. the
    /// AFTER utility. Name, value, unit.
    fn results(&self) -> Vec<(&'static str, f64, &'static str)>;

    /// Per-layer metrics of a traced run, read after the last op. `snap`
    /// holds the production counters and the benchmark's span histograms
    /// recorded in traced blocks; `traced_ops` is how many ops ran traced.
    fn layer_metrics(&self, snap: &xr_obs::MetricsSnapshot, traced_ops: u64, out: &mut layers::Metrics);
}

/// A workload after set-up plus what set-up measured.
pub struct Prepared {
    /// The system under test, warmed up.
    pub workload: Box<dyn Workload>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// FNV-1a digest of the generated inputs.
    pub input_digest: u64,
    /// Output-check failures found during set-up.
    pub setup_failures: Vec<String>,
}

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (ops stop once this much time has passed and
    /// [`MIN_OPS`] ran).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Stop after this many ops regardless of time (tests).
    pub max_ops: Option<u64>,
    /// Set-up repetitions; `None` takes the workload's default.
    pub setup_reps: Option<usize>,
}

impl Options {
    /// Set-up repetitions: as asked, else `default` untraced and one traced
    /// (a traced run reports no set-up time).
    pub fn setup_reps(&self, default: usize) -> usize {
        self.setup_reps.unwrap_or(if self.trace { 1 } else { default })
    }
}

/// A whole run's outcome.
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed an output check.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// The metrics the run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    pub metrics: layers::Metrics,
    /// Reported but not gated: the median, tail and throughput of an
    /// untraced run, and workload-specific results (utility, training
    /// time, ...).
    pub results: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Digest of the first [`DIGEST_OPS`] ops' decisions.
    pub decision_digest: u64,
    /// The traced run's trace context (spans kept in memory), if traced.
    pub trace_ctx: Option<Arc<ObsCtx>>,
}

/// Runs one workload end to end.
pub fn run(opts: &Options) -> Outcome {
    let ctx = opts.trace.then(|| ObsCtx::new(true, true));
    let prepared = match opts.kind {
        Kind::RoomsFleet => rooms_fleet::prepare(opts),
        Kind::StadiumChurn => stadium_churn::prepare(opts),
        Kind::PoshgnnServe => model_serve::prepare(opts, ctx.as_ref()),
    };
    let Prepared { mut workload, setup_s, input_digest, setup_failures } = prepared;

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let (mut attempted, mut failed, mut decisions) = (0u64, 0u64, 0u64);
    let mut failures = setup_failures;
    let start = Instant::now();
    loop {
        let index = attempted;
        let limit_hit = opts.max_ops.is_some_and(|m| index >= m);
        let time_up = start.elapsed().as_secs_f64() >= opts.seconds && index >= MIN_OPS;
        if limit_hit || (opts.max_ops.is_none() && time_up) {
            break;
        }
        let in_window = ctx.is_none() || index < TRACE_WINDOW;
        let in_traced_block = ctx.is_some() && in_window && (index / TRACE_BLOCK) % 2 == 1;
        let op = {
            let _guard = ctx.as_ref().filter(|_| in_traced_block).map(|c| c.install());
            let _span = xr_obs::span!("bench.op", op = index);
            workload.op(index)
        };
        attempted += 1;
        decisions += op.decisions;
        if in_traced_block {
            traced.push(op.latency_s);
        } else if in_window {
            plain.push(op.latency_s);
        }
        if !op.failures.is_empty() {
            failed += 1;
            failures.extend(op.failures.into_iter().take(4 - failures.len().min(4)));
        }
    }

    let mut metrics = layers::Metrics::default();
    let mut results = workload.results();
    match &ctx {
        None => {
            // gated: see README.md (Host noise) for why the gated latency
            // is the 1st percentile and the median, tail and throughput are
            // reported but not gated
            metrics.put("setup_s", median(&setup_s), "s");
            metrics.put("tick_p1_ms", quantile(&plain, 0.01) * 1e3, "ms");
            metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
            let total: f64 = plain.iter().sum();
            results.push(("tick_p5_ms", quantile(&plain, 0.05) * 1e3, "ms"));
            results.push(("tick_p50_ms", quantile(&plain, 0.5) * 1e3, "ms"));
            results.push(("tick_p90_ms", quantile(&plain, 0.9) * 1e3, "ms"));
            results.push(("decisions_per_s", decisions as f64 / total, "1/s"));
        }
        Some(ctx) => {
            let snap = ctx.registry.snapshot();
            workload.layer_metrics(&snap, traced.len() as u64, &mut metrics);
            metrics.put("obs.trace_overhead", quantile(&traced, 0.5) / quantile(&plain, 0.5), "ratio");
            metrics.put("tensor.simd_enabled", f64::from(u8::from(xr_tensor::simd_enabled())), "flag");
            layers::fill_absent(&mut metrics);
        }
    }
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        results,
        input_digest,
        decision_digest: workload.decision_digest(),
        trace_ctx: ctx,
    }
}

/// Times `reps` runs of `setup`, keeping the last instance. `input` makes
/// each run's copy of the inputs outside the timer.
pub fn time_setup<I, T>(
    reps: usize,
    mut input: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> T,
) -> (T, Vec<f64>) {
    assert!(reps >= 1, "set-up runs at least once");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // free the previous instance before building the next
        let copy = input();
        let start = Instant::now();
        let built = setup(copy);
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one repetition"), times)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q ∈ (0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, the digest used for inputs and decisions.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` in by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a decision mask in, one bit per entry.
    pub fn mask(&mut self, mask: &[bool]) {
        for (i, &on) in mask.iter().enumerate() {
            if on {
                self.u64(i as u64);
            }
        }
        self.u64(u64::MAX); // terminator so adjacent masks cannot alias
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a batch of position frames.
pub fn digest_frames<'a>(frames: impl IntoIterator<Item = &'a [xr_graph::Point2]>) -> u64 {
    let mut h = Fnv::default();
    for frame in frames {
        h.u64(frame.len() as u64);
        for p in frame {
            h.f64(p.x);
            h.f64(p.y);
        }
    }
    h.finish()
}

/// The viewer ids a room registers: `count` users spread evenly over ids.
pub fn spread_viewers(n: usize, count: usize) -> Vec<usize> {
    (0..count).map(|i| i * n / count).collect()
}

/// The server as the benchmark drives it: one worker and no latency budget,
/// so the degradation ladder never moves and every run does the same work.
pub fn server_config() -> xr_serve::ServerConfig {
    xr_serve::ServerConfig { workers: 1, slo: None, ..xr_serve::ServerConfig::default() }
}

/// A bare engine configured like a room with `config`: the reference the
/// room's decisions must equal bitwise.
pub fn bare_engine(config: &xr_serve::RoomConfig) -> xr_session::SceneEngine {
    let mut engine = xr_session::SceneEngine::new(config.n, config.scene.clone(), &config.viewers);
    engine.set_slo(None);
    engine.set_state_retention(config.retain_states);
    if let Some(k) = config.prune_k {
        engine.set_prune_k(k);
    }
    engine
}

/// Facts about the host that every run records.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("simd_enabled", xr_tensor::simd_enabled().to_string()),
        ("kernel", kernel),
    ]
}

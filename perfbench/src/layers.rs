//! Per-layer metrics of a traced run: the catalogue every traced run
//! reports, span self times from the in-memory trace, and the files a
//! traced run writes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use xr_obs::{Json, MetricsSnapshot, ObsCtx};
use xr_serve::ServerStats;

/// Every per-layer metric, with its unit. A traced run reports all of them;
/// a layer the workload never enters reads 0 in the result line and is left
/// out of the layer file. Keep in step with `BENCHMARK.json`.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("serve.enqueue_ms", "ms"),
    ("serve.pump_ms", "ms"),
    ("serve.pump_self_ms", "ms"),
    ("serve.frames_enqueued", "count/op"),
    ("serve.frames_processed", "count/op"),
    ("serve.frames_coalesced", "count/op"),
    ("serve.frames_shed", "count/op"),
    ("serve.mailbox.coalesced", "count/op"),
    ("session.push_ms.small", "ms"),
    ("session.push_ms.medium", "ms"),
    ("session.push_ms.large", "ms"),
    ("session.push_ms.stadium", "ms"),
    ("session.decide_ms", "ms"),
    ("session.context_build_ms", "ms"),
    ("session.movers_per_frame", "count"),
    ("session.occlusion_edges_per_viewer", "count"),
    ("session.sweep.saved_per_test", "ratio"),
    ("session.incremental.rebuilt_frac", "ratio"),
    ("session.prune.shortlists_reused_frac", "ratio"),
    ("prune.index_build_ms", "ms"),
    ("prune.nearest_k_ms", "ms"),
    ("prune.shortlist_visible_frac", "ratio"),
    ("core.serve_step_ms", "ms"),
    ("core.mia_episode_ms", "ms"),
    ("core.train_forward_ms", "ms"),
    ("core.train_backward_ms", "ms"),
    ("core.train_epoch_ms", "ms"),
    ("core.train_s", "s"),
    ("core.topk_overlap_f32_vs_f64", "ratio"),
    ("core.after_utility", "utility"),
    ("tensor.matmul.chunked.simd", "count/op"),
    ("tensor.matmul.chunked.scalar", "count/op"),
    ("tensor.matmul.packed.simd", "count/op"),
    ("tensor.matmul.packed.scalar", "count/op"),
    ("tensor.spmm.simd", "count/op"),
    ("tensor.spmm.scalar", "count/op"),
    ("tensor.simd_enabled", "flag"),
    ("obs.trace_overhead", "ratio"),
    ("gen.frame_ms", "ms"),
];

/// Named metrics in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
    absent: Vec<&'static str>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.rows.iter_mut().find(|(n, _, _)| n == name) {
            Some(row) => *row = (name.to_string(), value, unit),
            None => self.rows.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Rows as `(name, value, unit)`.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// Catalogue metrics whose layer this workload never entered.
    pub fn absent(&self) -> &[&'static str] {
        &self.absent
    }
}

/// Adds every catalogue metric the workload did not set, as 0, and notes it
/// as absent.
pub fn fill_absent(m: &mut Metrics) {
    for &(name, unit) in CATALOGUE {
        if m.get(name).is_none() {
            m.put(name, 0.0, unit);
            m.absent.push(name);
        }
    }
}

/// Mean milliseconds per call of a benchmark span, if it recorded.
pub fn span_mean_ms(snap: &MetricsSnapshot, span: &str) -> Option<f64> {
    snap.histogram(span).filter(|h| h.count > 0).map(|h| h.mean())
}

/// Total milliseconds of a benchmark span over the run, 0 if it never ran.
pub fn span_total_ms(snap: &MetricsSnapshot, span: &str) -> f64 {
    snap.histogram(span).map_or(0.0, |h| h.sum)
}

/// A production counter's total, 0 when it never fired.
pub fn counter(snap: &MetricsSnapshot, display: &str) -> u64 {
    snap.counter(display).unwrap_or(0)
}

/// Sets each `(metric, span)` pair to the span's mean milliseconds per call,
/// for spans that recorded.
pub fn put_span_means(snap: &MetricsSnapshot, pairs: &[(&str, &str)], out: &mut Metrics) {
    for &(metric, span) in pairs {
        if let Some(ms) = span_mean_ms(snap, span) {
            out.put(metric, ms, "ms");
        }
    }
}

/// The `serve.*` metrics of the room workloads: the benchmark's enqueue and
/// pump spans per round, the pump's self time (pump minus the bare-engine
/// `session_spans` on the same frames, per traced op), and the server's
/// frame counters per op.
pub fn serve_metrics(
    snap: &MetricsSnapshot,
    traced_ops: u64,
    session_spans: &[&str],
    stats: ServerStats,
    at_setup: ServerStats,
    ops: u64,
    out: &mut Metrics,
) {
    put_span_means(
        snap,
        &[("serve.enqueue_ms", "layer.serve.enqueue"), ("serve.pump_ms", "layer.serve.pump")],
        out,
    );
    let session_ms: f64 = session_spans.iter().map(|s| span_total_ms(snap, s)).sum();
    let pump_self = span_total_ms(snap, "layer.serve.pump") - session_ms;
    out.put("serve.pump_self_ms", pump_self / traced_ops.max(1) as f64, "ms");
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;
    out.put("serve.frames_enqueued", per_op(stats.enqueued - at_setup.enqueued), "count/op");
    out.put("serve.frames_processed", per_op(stats.processed - at_setup.processed), "count/op");
    out.put("serve.frames_coalesced", per_op(stats.coalesced - at_setup.coalesced), "count/op");
    out.put("serve.frames_shed", per_op(stats.shed - at_setup.shed), "count/op");
    let coalesced = counter(snap, "serve.mailbox.coalesced");
    out.put("serve.mailbox.coalesced", coalesced as f64 / traced_ops.max(1) as f64, "count/op");
}

/// Reuse ratios from the session layer's own production counters.
pub fn session_counters(snap: &MetricsSnapshot, out: &mut Metrics) {
    let tests = counter(snap, "session.sweep.pair_tests");
    let views = counter(snap, "session.views_served");
    if tests > 0 {
        let saved = counter(snap, "session.sweep.pair_tests_saved");
        out.put("session.sweep.saved_per_test", saved as f64 / tests as f64, "ratio");
    }
    if views > 0 {
        let rebuilt = counter(snap, "session.incremental.viewers_rebuilt");
        out.put("session.incremental.rebuilt_frac", rebuilt as f64 / views as f64, "ratio");
    }
}

/// Copies the `xr_tensor.serve32.*` kernel-leg counters, per op.
pub fn tensor_counters(snap: &MetricsSnapshot, ops: u64, out: &mut Metrics) {
    let per_op = |display: &str| counter(snap, display) as f64 / ops.max(1) as f64;
    for kernel in ["chunked", "packed"] {
        for leg in ["simd", "scalar"] {
            let display = format!("xr_tensor.serve32.matmul{{kernel={kernel},leg={leg}}}");
            out.put(&format!("tensor.matmul.{kernel}.{leg}"), per_op(&display), "count/op");
        }
    }
    for leg in ["simd", "scalar"] {
        out.put(
            &format!("tensor.spmm.{leg}"),
            per_op(&format!("xr_tensor.serve32.spmm{{leg={leg}}}")),
            "count/op",
        );
    }
}

/// Per span name: calls, total and self milliseconds, where a span's self
/// time is its duration minus the time its direct children cover.
pub fn self_times(trace: &Json) -> BTreeMap<String, (u64, f64, f64)> {
    struct Ev {
        tid: u64,
        ts: f64,
        dur: f64,
        name: String,
    }
    let mut events: Vec<Ev> = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            Some(Ev {
                tid: e.get("tid")?.as_f64()? as u64,
                ts: e.get("ts")?.as_f64()?,
                dur: e.get("dur")?.as_f64()?,
                name: e.get("name")?.as_str()?.to_string(),
            })
        })
        .collect();
    // parents start no later than their children and, at equal start, last longer
    events.sort_by(|a, b| a.tid.cmp(&b.tid).then(a.ts.total_cmp(&b.ts)).then(b.dur.total_cmp(&a.dur)));
    let mut child_time = vec![0.0f64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..events.len() {
        while let Some(&top) = stack.last() {
            let t = &events[top];
            if t.tid != events[i].tid || t.ts + t.dur <= events[i].ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_time[parent] += events[i].dur;
        }
        stack.push(i);
    }
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (ev, child) in events.iter().zip(&child_time) {
        let row = table.entry(ev.name.clone()).or_default();
        row.0 += 1;
        row.1 += ev.dur / 1e3;
        row.2 += (ev.dur - child).max(0.0) / 1e3;
    }
    table
}

/// Where traced runs write their files: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's Chrome trace and its per-layer file (metrics plus
/// span self times). Returns the two paths.
pub fn write_trace_files(
    ctx: &ObsCtx,
    stem: &str,
    metrics: &Metrics,
    host: &[(&'static str, String)],
) -> std::io::Result<(PathBuf, PathBuf)> {
    let sink = ctx.trace.as_ref().expect("traced runs install a trace sink");
    let chrome = sink.to_chrome_json();
    let mut spans = Json::obj();
    for (name, (calls, total_ms, self_ms)) in self_times(&chrome) {
        spans = spans
            .set(&name, Json::obj().set("calls", calls).set("total_ms", total_ms).set("self_ms", self_ms));
    }
    let mut layer_rows = Json::obj();
    for (name, value, unit) in metrics.rows() {
        if !metrics.absent().contains(&name.as_str()) {
            layer_rows = layer_rows.set(name, Json::obj().set("value", *value).set("unit", *unit));
        }
    }
    let mut host_json = Json::obj();
    for (k, v) in host {
        host_json = host_json.set(k, v.as_str());
    }
    let doc = Json::obj()
        .set("host", host_json)
        .set("metrics", layer_rows)
        .set("absent", Json::Arr(metrics.absent().iter().map(|&n| Json::from(n)).collect()))
        .set("spans", spans);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join(format!("{stem}.trace.json"));
    let layers_path = dir.join(format!("{stem}.layers.json"));
    xr_obs::meta::write_atomic(&trace_path, &chrome.compact())?;
    xr_obs::meta::write_atomic(&layers_path, &doc.pretty())?;
    Ok((trace_path, layers_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, ts: f64, dur: f64) -> Json {
        Json::obj().set("name", name).set("ph", "X").set("ts", ts).set("dur", dur).set("tid", tid)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![
                span("op", 1, 0.0, 10_000.0),
                span("pump", 1, 1_000.0, 6_000.0),
                span("push", 1, 2_000.0, 3_000.0),
                span("push", 1, 7_500.0, 1_000.0),
                span("other_thread", 2, 1_000.0, 500.0),
            ]),
        );
        let t = self_times(&trace);
        assert_eq!(t["op"], (1, 10.0, 3.0)); // 10 − pump 6 − second push 1
        assert_eq!(t["pump"], (1, 6.0, 3.0)); // 6 − first push 3
        assert_eq!(t["push"], (2, 4.0, 4.0));
        assert_eq!(t["other_thread"], (1, 0.5, 0.5));
    }
}

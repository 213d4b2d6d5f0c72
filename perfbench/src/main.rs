//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report (lines starting with `#`), then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics untraced, the per-layer metrics traced. A traced
//! run also writes a Chrome trace and a per-layer file under `out/` beside
//! this package's manifest.

use std::process::ExitCode;

use perfbench::{host_facts, run, Kind, Options};

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!("usage: perfbench --workload <rooms_fleet|stadium_churn|poshgnn_serve> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        kind: Kind::RoomsFleet,
        seed: 0,
        seconds: 10.0,
        trace: false,
        max_ops: None,
        setup_reps: None,
    };
    let mut kind = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    // AFTER_* variables switch production paths (maintenance mode, payload,
    // kernels, thread count, budgets); the benchmark measures the defaults
    let pinned: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("AFTER_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset them to measure the default paths",
            pinned.join(", ")
        );
        return ExitCode::from(3);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };

    let host = host_facts();
    let outcome = run(&opts);

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# host {}", host.iter().map(|(k, v)| format!("{k}={v:?}")).collect::<Vec<_>>().join(" "));
    println!("# input_digest={:016x} decision_digest={:016x}", outcome.input_digest, outcome.decision_digest);
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("# attempted={} failed={} error_rate={error_rate}", outcome.attempted, outcome.failed);
    for (name, value, unit) in &outcome.results {
        println!("# result {name} {value} {unit}");
    }
    for (name, value, unit) in outcome.metrics.rows() {
        println!("# metric {name} {value} {unit}");
    }
    for failure in &outcome.failures {
        println!("# failure {failure}");
    }
    if let Some(ctx) = &outcome.trace_ctx {
        let stem = format!("{}-seed{}", opts.kind.name(), opts.seed);
        match perfbench::layers::write_trace_files(ctx, &stem, &outcome.metrics, &host) {
            Ok((trace, layers)) => println!("# wrote {} and {}", trace.display(), layers.display()),
            Err(e) => println!("# could not write trace files: {e}"),
        }
    }

    let finite = outcome.metrics.rows().iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && outcome.failures.is_empty() && finite;
    let metrics: Vec<String> = outcome
        .metrics
        .rows()
        .iter()
        .map(|(name, value, unit)| {
            // Display prints every digit needed to round-trip, never an exponent
            let value = if value.is_finite() { value.to_string() } else { "null".into() };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

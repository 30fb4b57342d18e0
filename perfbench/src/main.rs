//! perfbench: the repository benchmark.
//!
//! Four workloads, each driven through the runtime's public entry points
//! and each checked for correct output; `BENCHMARK.json` declares the
//! first three:
//!
//! - `stencil_grid`: the paper's 2048² Jacobi stencil with the real
//!   kernel, 64 objects on two PEs of the threaded engine, the delay
//!   device injecting the TeraGrid latency;
//! - `finegrain_tcp`: a 256² stencil in 1024 8×8 blocks, round-robin over
//!   two loopback TCP nodes with aggregation on — per-envelope cost rules;
//! - `pingpong_tcp`: one 32-B message in flight between the same two
//!   nodes — the same layers unloaded;
//! - `sim_sweep`: the paper's cost-model stencil on the simulation engine
//!   at 1.725, 16 and 64 ms.  Its virtual times and overlaps are checked
//!   exact on every run, but it is not declared: its wall time is a
//!   single memory-bound thread, which on a shared 2-vCPU host drifts by
//!   20–35% between runs minutes apart while an arithmetic loop in the
//!   same process holds within 4%, so no bound would hold for its
//!   `step_ms`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` (the default) a run times the workload with tracing
//! off and prints the end-to-end metrics; with `--trace 1` it replays the
//! workload's traffic through each layer's entry points with spans on and
//! prints the per-layer metrics.  The last line of standard output is one
//! JSON object.  If any output check fails the run prints no result,
//! writes no file, and exits with status 1.

mod alloc;
mod jobs;
mod layers;
mod replay;
mod spans;
mod stats;
mod timed;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use jobs::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workloads: Workload::ALL.to_vec(), seed: 1, seconds: 10, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&out.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// One metric of a result line.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one workload run, printed only once every check passed.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    report: Vec<String>,
    /// Span file to write once the checks have passed.
    spans: Option<(String, String)>,
    /// Run-length fields for the metadata line, as JSON members.
    run_meta: String,
}

/// Output of a helper program, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run_timed(w: Workload, args: &Args) -> Outcome {
    let t = timed::run(w, args.seed, Duration::from_secs(args.seconds));
    let rss = timed::peak_rss_mib();
    let mut errors = t.errors.clone();
    if rss.is_none() {
        errors.push("peak RSS unavailable (/proc/self/status has no VmHWM)".into());
    }
    let (short, long) = t.trial_ops;
    let mut report = vec![
        format!("setup_s: {}", timed::summary(&t.setup_s)),
        if short == 0 {
            format!("step_ms: {} [trial = median round trip of {long} rounds]", timed::summary(&t.step_ms))
        } else {
            format!("step_ms: {} [trial = {short} then {long} steps, differenced]", timed::summary(&t.step_ms))
        },
        format!("setup_s runs: {}, trials: {}", t.setup_s.len(), t.step_ms.len()),
        format!("peak_rss_mib: {:.1}", rss.unwrap_or(f64::NAN)),
        format!("operations: {} attempted, {} failed", t.attempted, t.failed),
    ];
    if !t.rtt_ns.is_empty() {
        let us: Vec<f64> = t.rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let tail = stats::tail_percentile(us.len()).unwrap_or(50.0);
        report.push(format!(
            "rtt_us: p50 {:.1}  p{tail} {:.1}  (n={})",
            stats::median(&us).unwrap_or(f64::NAN),
            stats::percentile(&us, tail).unwrap_or(f64::NAN),
            us.len()
        ));
    }
    if let Some((virt, overlap)) = &t.virt {
        for ((lat, ms), ov) in jobs::SWEEP_LATENCIES.iter().zip(virt).zip(overlap) {
            report.push(format!("at {:.3} ms: virt_step_ms {ms:?}, overlap {ov:?} (checked)", lat.as_millis_f64()));
        }
    }
    let values = [stats::median(&t.setup_s), stats::median(&t.step_ms), rss];
    let metrics = layers::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric { name: name.to_string(), value: v.unwrap_or(f64::NAN), unit })
        .collect();
    let run_meta = format!(
        "\"setup_runs\": {}, \"trials\": {}, \"trial_ops\": [{short}, {long}]",
        t.setup_s.len(),
        t.step_ms.len()
    );
    Outcome { attempted: t.attempted, failed: t.failed, errors, metrics, report, spans: None, run_meta }
}

fn run_traced(w: Workload, args: &Args) -> Outcome {
    let r = replay::run(w, args.seed, Duration::from_secs(args.seconds));
    let spans = Some((format!("perfbench/out/{}.spans.csv", w.name()), r.spans_csv));
    let run_meta = format!(
        "\"job_ops\": {}, \"replay_steps\": {}, \"replay_passes\": {}",
        r.job_ops, r.replay_steps, r.replay_passes
    );
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        errors: r.errors,
        metrics: r.metrics,
        report: r.report,
        spans,
        run_meta,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let rustc = command_line("rustc", &["--version"]);
    // A checkout without its own `.git` must not report an enclosing
    // repository's commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };

    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let outcome = if args.trace { run_traced(w, &args) } else { run_timed(w, &args) };
        let mut bad = outcome.errors.clone();
        if outcome.failed > 0 && bad.is_empty() {
            bad.push(format!("{} of {} operations failed", outcome.failed, outcome.attempted));
        }
        for m in &outcome.metrics {
            if !stats::valid_metric_name(&m.name) || !m.value.is_finite() {
                bad.push(format!("metric {} = {} is not a finite, validly named number", m.name, m.value));
            }
        }
        let declared: Vec<(String, &str)> = if args.trace {
            layers::all().into_iter().map(|(name, unit, _)| (name, unit)).collect()
        } else {
            layers::END_TO_END.iter().map(|&(name, unit)| (name.to_string(), unit)).collect()
        };
        let printed: Vec<(String, &str)> = outcome.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        if bad.is_empty() && printed != declared {
            bad.push("the metrics measured differ from the metrics declared".into());
        }
        if !bad.is_empty() {
            eprintln!("perfbench: {} failed its checks; no result written", w.name());
            for e in &bad {
                eprintln!("  {e}");
            }
            return ExitCode::FAILURE;
        }
        outcomes.push((w, outcome));
    }

    for (w, o) in &outcomes {
        if let Some((path, csv)) = &o.spans {
            let path = std::path::Path::new(path);
            if let Err(e) =
                path.parent().map_or(Ok(()), std::fs::create_dir_all).and_then(|()| std::fs::write(path, csv))
            {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("== {} (seed {}, {} s, trace {})", w.name(), args.seed, args.seconds, u8::from(args.trace));
        for line in &o.report {
            println!("  {line}");
        }
        let meta = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": {}, \
             \"commit\": {}, {}}}",
            json_string(w.name()),
            args.seed,
            args.seconds,
            args.trace,
            json_string(&rustc),
            json_string(&commit),
            o.run_meta
        );
        println!("meta: {meta}");
        let metrics: Vec<String> = o
            .metrics
            .iter()
            .map(|m| format!("{}: {{\"value\": {}, \"unit\": {}}}", json_string(&m.name), m.value, json_string(m.unit)))
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            o.attempted,
            o.failed,
            metrics.join(", ")
        );
    }
    ExitCode::SUCCESS
}

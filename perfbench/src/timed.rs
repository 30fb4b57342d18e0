//! The timed run: end-to-end metrics with tracing off.
//!
//! Set-up time is the wall time of the job with the fewest operations the
//! app accepts (one step or round), taken several times.  Steady-state
//! time per operation is, for the stencil and simulated workloads, the
//! difference between a short and a long run of the same job divided by
//! the difference in steps, so set-up, warm-up and teardown cancel; the
//! ping-pong times every round trip directly, and a trial's figure is its
//! median round trip.  Trials repeat until the time budget is spent, and
//! the median over trials is reported.

use std::time::{Duration, Instant};

use crate::jobs::{self, JobRun, Workload, SIM_CHECK_STEPS};
use crate::stats;

/// Set-up runs per timed run: at least the first, and more while they
/// take under a sixth of the budget, up to the second.
const SETUP_REPS: (usize, usize) = (11, 101);

/// Trials run even when the budget is already spent.
const MIN_TRIALS: usize = 3;

/// Everything the timed run measured and checked.
pub struct Timed {
    /// Set-up wall times, s.
    pub setup_s: Vec<f64>,
    /// Steady-state ms per operation, one per trial.
    pub step_ms: Vec<f64>,
    /// Ping-pong round trips, ns.
    pub rtt_ns: Vec<u64>,
    /// Virtual ms/step and obs-armed overlap per sweep latency.
    pub virt: Option<(Vec<f64>, Vec<f64>)>,
    /// Operations attempted and the operations of runs that failed.
    pub attempted: u64,
    /// Operations of failed runs.
    pub failed: u64,
    /// Why runs failed.
    pub errors: Vec<String>,
    /// Short and long run lengths of a trial (the ping-pong runs only the
    /// long one).
    pub trial_ops: (u32, u32),
}

impl Timed {
    fn account(&mut self, run: &JobRun) {
        self.attempted += u64::from(run.ops);
        if let Some(e) = &run.error {
            self.failed += u64::from(run.ops);
            self.errors.push(e.clone());
        }
    }
}

/// Time workload `w` for about `budget`.
pub fn run(w: Workload, seed: u64, budget: Duration) -> Timed {
    let (short, long) = w.trial_ops();
    let reference = jobs::reference_for(w, &[1, short, long]);
    let mut t = Timed {
        setup_s: Vec::new(),
        step_ms: Vec::new(),
        rtt_ns: Vec::new(),
        virt: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        trial_ops: (short, long),
    };
    if w == Workload::SimSweep {
        // Overlap needs obs armed, which is tracing: check it outside the
        // timed region.
        let armed = jobs::run_sweep(SIM_CHECK_STEPS, seed, true);
        t.account(&armed);
        t.virt = Some((armed.virt_ms.clone(), armed.overlap.clone()));
    }
    let start = Instant::now();
    while t.setup_s.len() < SETUP_REPS.0 || (t.setup_s.len() < SETUP_REPS.1 && start.elapsed() < budget / 6) {
        let run = jobs::run_job(w, 1, seed, reference.as_ref());
        t.account(&run);
        t.setup_s.push(run.wall_s);
    }
    while t.step_ms.len() < MIN_TRIALS || start.elapsed() < budget {
        if w == Workload::PingpongTcp {
            let run = jobs::run_pingpong(long, seed);
            t.account(&run);
            let ms: Vec<f64> = run.rtt_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            t.step_ms.push(stats::median(&ms).unwrap_or(f64::NAN));
            t.rtt_ns.extend(run.rtt_ns);
            continue;
        }
        let a = jobs::run_job(w, short, seed, reference.as_ref());
        let b = jobs::run_job(w, long, seed, reference.as_ref());
        t.account(&a);
        t.account(&b);
        t.step_ms.push((b.wall_s - a.wall_s) * 1e3 / f64::from(long - short));
    }
    t
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median and quartiles of a sample set, formatted for the report.
pub fn summary(samples: &[f64]) -> String {
    match (stats::median(samples), stats::quartiles(samples)) {
        (Some(m), Some((q1, q3))) => format!("median {m:.4} (q1 {q1:.4}, q3 {q3:.4}, n={})", samples.len()),
        _ => "no samples".to_string(),
    }
}

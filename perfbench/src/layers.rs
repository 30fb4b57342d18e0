//! The per-layer metrics and the end-to-end metric each should move.
//!
//! Layers are named after their crate and module.  Every traced run prints
//! every metric below for its workload; where a workload does not use a
//! layer in its timed run, the replay still drives that layer with the
//! workload's traffic shape, and `moves` says on which workloads the
//! figure matters.

/// The end-to-end metrics every timed run prints, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("step_ms", "ms"), ("peak_rss_mib", "MiB")];

/// One per-layer metric.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric (and workloads) it should move.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const FINEGRAIN: &str = "step_ms on finegrain_tcp; about no effect on stencil_grid";
const AGG: &str = "step_ms on finegrain_tcp (size-flushed frames) and on pingpong_tcp (deadline-flushed round trips)";
const MESH: &str = "step_ms on pingpong_tcp and finegrain_tcp";
const SIM: &str = "step_ms on sim_sweep; must leave the checked virtual times and overlaps unchanged";
const DELAY: &str = "step_ms on stencil_grid, only if ghosts arrive after a PE has run out of work";

/// Metrics computed from the layers' own numbers, in report order.
pub const METRICS: [LayerMetric; 24] = [
    m("apps.stencil.kernel_ns_per_cell", "ns", "lower", "step_ms on stencil_grid; not finegrain_tcp (64-cell blocks)"),
    m("core.engine.pe_busy_frac", "frac", "higher", "step_ms everywhere: near 1 means throughput-bound"),
    m("core.engine.max_queue_depth", "count", "lower", "step_ms on finegrain_tcp and sim_sweep"),
    m("core.engine.msgs_per_step", "count", "lower", "step_ms everywhere (exact count)"),
    m("core.envelope.encode_ns", "ns", "lower", FINEGRAIN),
    m("core.envelope.decode_ns", "ns", "lower", FINEGRAIN),
    m("core.envelope.allocs_per_env", "count", "lower", FINEGRAIN),
    m("core.queue.push_pop_ns", "ns", "lower", "step_ms on finegrain_tcp and sim_sweep"),
    m("vmi.aggregate.send_ns", "ns", "lower", AGG),
    m("vmi.aggregate.env_per_frame", "count", "higher", AGG),
    m("vmi.aggregate.deadline_flush_share", "frac", "lower", AGG),
    m("vmi.aggregate.allocs_per_env", "count", "lower", AGG),
    m("vmi.reliable.send_ns", "ns", "lower", "step_ms on finegrain_tcp"),
    m("vmi.reliable.retransmit_ratio", "frac", "lower", "step_ms on finegrain_tcp; 0 on loopback, above 0 is waste"),
    m("vmi.mailbox.post_ns", "ns", "lower", "step_ms on finegrain_tcp"),
    m("vmi.mailbox.take_ns", "ns", "lower", "step_ms on finegrain_tcp"),
    m("vmi.delay.late_us_p50", "us", "lower", DELAY),
    m("vmi.delay.late_us_p99", "us", "lower", DELAY),
    m("net.mesh.oneway_us_p50", "us", "lower", MESH),
    m("net.mesh.oneway_us_p99", "us", "lower", MESH),
    m("net.mesh.wire_bytes_per_env", "bytes", "lower", MESH),
    m("netsim.event_ns", "ns", "lower", SIM),
    m("netsim.msgs_per_step", "count", "lower", SIM),
    m("netsim.wan_msgs_per_step", "count", "lower", SIM),
];

/// The layers whose entry points the replay records spans around; each
/// reports `<layer>.calls`, `<layer>.self_ns_p50` and `<layer>.self_ns_tail`
/// (the highest percentile with ten samples beyond it; the maximum below
/// twenty calls).
pub const LAYERS: [&str; 10] = [
    "apps.stencil",
    "core.engine",
    "core.envelope",
    "core.queue",
    "vmi.aggregate",
    "vmi.reliable",
    "vmi.mailbox",
    "vmi.delay",
    "net.mesh",
    "netsim",
];

/// Replay wall time with spans on over the same replay with spans off.
pub const TRACE_OVERHEAD: &str = "perfbench.trace_overhead";

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn all() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = METRICS.iter().map(|m| (m.name.to_string(), m.unit, m.better)).collect();
    for layer in LAYERS {
        out.push((format!("{layer}.calls"), "count", "lower"));
        out.push((format!("{layer}.self_ns_p50"), "ns", "lower"));
        out.push((format!("{layer}.self_ns_tail"), "ns", "lower"));
    }
    out.push((TRACE_OVERHEAD.to_string(), "ratio", "lower"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Workload;
    use crate::stats::valid_metric_name;

    /// `(name, unit, better)` of every object in the `key` array of the
    /// repository's `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("metric list key");
        let body = &text[start..text[start..].find(']').map(|e| start + e).expect("per_layer array end")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {obj}"));
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value start") + 1;
            rest[open..open + rest[open..].find('"').expect("value end")].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better"))).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let ours: Vec<(String, String, String)> =
            all().into_iter().map(|(n, u, b)| (n, u.to_string(), b.to_string())).collect();
        assert_eq!(declared("per_layer"), ours);
        let e2e: Vec<(String, String)> = declared("end_to_end").into_iter().map(|(n, u, _)| (n, u)).collect();
        let ours: Vec<(String, String)> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, ours);
    }

    #[test]
    fn benchmark_json_declares_every_workload_but_the_sweep() {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find("\"workloads\"").expect("workloads key");
        let body = &text[start..start + text[start..].find(']').expect("workloads array end")];
        let names: Vec<&str> =
            body.split("\"name\": \"").skip(1).map(|rest| &rest[..rest.find('"').expect("name end")]).collect();
        let ours: Vec<&str> = Workload::ALL.iter().filter(|&&w| w != Workload::SimSweep).map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<String> = all().into_iter().map(|(n, _, _)| n).collect();
        assert!(names.iter().all(|n| valid_metric_name(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(END_TO_END.iter().all(|(n, _)| valid_metric_name(n)));
    }
}

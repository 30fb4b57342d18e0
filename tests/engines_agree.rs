//! Cross-engine agreement: the virtual-time simulation engine and the
//! threaded engine must compute identical application results.  The
//! timing half of the agreement — the threaded engine sleep-emulating
//! compute tracks the simulated time — is `tests/engines_timing.rs`.

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, StencilConfig, StencilCost};
use gridmdo::prelude::*;

fn stencil_cfg(steps: u32) -> StencilConfig {
    StencilConfig {
        mesh: 64,
        objects: 16,
        steps,
        compute: true,
        cost: StencilCost {
            ns_per_cell: 2_000.0, // ms-scale steps so sleep emulation is meaningful
            msg_overhead: Dur::from_micros(50),
            cache_effect: false,
        },
        mapping: Mapping::Block,
        lb_period: None,
    }
}

#[test]
fn stencil_results_identical_across_engines() {
    let cfg = stencil_cfg(6);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(3));
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(3));
        stencil::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    assert_eq!(sim.block_sums, threaded.block_sums, "identical fields, any engine");
}

#[test]
fn leanmd_results_identical_across_engines() {
    let cfg = MdConfig::validation(3, 4, 4);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(2));
        leanmd::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    assert_eq!(sim.checksums, threaded.checksums);
    assert_eq!(sim.kinetic, threaded.kinetic);
}

#[test]
fn engines_count_the_same_application_traffic() {
    // Message counts are a structural property; the engines must agree on
    // total application traffic (system-message routing differs slightly
    // because the threaded engine also ships the final Exit fan-out).
    let cfg = stencil_cfg(4);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        stencil::run_threaded(cfg, topo, latency, RunConfig::default())
    };
    let sim_total = sim.report.network.total_messages();
    let thr_total = threaded.report.network.total_messages();
    assert!(
        thr_total >= sim_total && thr_total <= sim_total + 4,
        "traffic agrees modulo the exit fan-out: sim {sim_total}, threaded {thr_total}"
    );
}

//! Cross-engine timing agreement: the threaded engine, sleep-emulating
//! compute, must predict the same ms/step as the virtual-time simulation
//! engine — the reproduction's analogue of the paper's artificial-vs-
//! real-Grid validation (Tables 1 and 2).
//!
//! This is the only test in its binary.  It measures wall time, so it
//! must not share the host's cores with the other tests of a binary that
//! the harness runs in parallel with it.

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
fn stencil_timing_agrees_with_sleep_emulation() {
    // 64x64 mesh in 16 objects, ~8.2 ms of compute per object step.
    let cfg = stencil_cfg(8);
    let lat = Dur::from_millis(5);
    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, lat);
        stencil::run_sim(cfg.clone(), net, RunConfig::default())
    };
    let threaded = {
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, lat);
        let tcfg = ThreadedConfig::new(latency).with_compute_sleep();
        stencil::run_threaded_with(cfg, topo, tcfg, RunConfig::default())
    };
    let ratio = threaded.ms_per_step / sim.ms_per_step;
    assert!(
        (0.8..1.6).contains(&ratio),
        "threaded wall time tracks simulated time: sim {:.3} ms/step, real {:.3} ms/step ({ratio:.2}x)",
        sim.ms_per_step,
        threaded.ms_per_step
    );
}

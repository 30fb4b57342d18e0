//! The real transport, end to end: multi-node runs over localhost TCP
//! must be **bit-exact** with the simulation engine and the
//! single-process threaded engine — including with TRAM aggregation and
//! Block flow control layered on top, and including a shrink-recovery
//! after a mid-run crash on a remote node.
//!
//! These tests are hermetic: each "node process" is a thread calling the
//! same public entry points an `mdo_launch` child would (the per-node
//! `RunConfig::net` path), over real sockets on 127.0.0.1.  Process-level
//! spawning and kill -9 behaviour are covered by the `mdo-net` launcher
//! unit tests and the `mdo_launch` CI smoke.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost};
use gridmdo::net::{localhost_rendezvous, HandshakeField, NetSession};
use gridmdo::prelude::*;
use gridmdo::runtime::engine::net::run_with_session;
use gridmdo::runtime::Program;
use mdo_net::TransportError as NetError;

fn small_stencil(objects: usize, steps: u32, lb_period: Option<u32>) -> StencilConfig {
    StencilConfig {
        mesh: 32,
        objects,
        steps,
        compute: true,
        cost: StencilCost { ns_per_cell: 10.0, msg_overhead: Dur::from_micros(5), cache_effect: false },
        mapping: Mapping::Block,
        lb_period,
    }
}

fn seq_reference(cfg: &StencilConfig) -> Vec<f64> {
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    reference.block_sums(cfg.k())
}

/// Reserve a manifest of distinct localhost ports, then release them for
/// the node runs to rebind (the same reserve-then-rebind the launcher
/// does for real child processes).
fn reserve_manifest(nodes: usize) -> Vec<SocketAddr> {
    let (listeners, addrs) = localhost_rendezvous(nodes).expect("bind manifest ports");
    drop(listeners);
    addrs
}

/// Run one stencil job as `nodes` node-threads over real TCP and return
/// node 0's outcome (the merged report and the gathered block sums).
fn run_stencil_net(
    cfg: &StencilConfig,
    topo: &Topology,
    latency: &LatencyMatrix,
    run_cfg: &RunConfig,
    streams: usize,
) -> stencil::StencilOutcome {
    let nodes = topo.num_clusters();
    let manifest = reserve_manifest(nodes);
    let mut handles = Vec::new();
    for node in (0..nodes as u32).rev() {
        let cfg = cfg.clone();
        let topo = topo.clone();
        let latency = latency.clone();
        let mut run_cfg = run_cfg.clone();
        run_cfg.net = Some(NetConfig::new(node, manifest.clone()).with_streams(streams));
        let h = thread::Builder::new()
            .name(format!("node{node}"))
            .spawn(move || stencil::run_threaded_with(cfg, topo, ThreadedConfig::new(latency), run_cfg))
            .expect("spawn node thread");
        handles.push((node, h));
    }
    let mut node0 = None;
    for (node, h) in handles {
        let out = h.join().unwrap_or_else(|_| panic!("node {node} panicked"));
        if node == 0 {
            node0 = Some(out);
        }
    }
    node0.expect("node 0 outcome")
}

#[test]
fn four_node_stencil_is_bit_exact_with_agg_and_flow() {
    // The ISSUE oracle: 4 nodes over real sockets, aggregation on, Block
    // flow control on — digests bit-identical to the simulation engine
    // and to the same job run single-process.
    let cfg = small_stencil(16, 5, None);
    let topo = Topology::uniform(4, 2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));
    let run_cfg =
        RunConfig { agg: Some(AggConfig::default()), flow: Some(FlowConfig::default()), ..RunConfig::default() };

    let seq = seq_reference(&cfg);
    let sim = {
        let contention = gridmdo::netsim::bandwidth::WanContention::disabled(&topo);
        let net = NetworkModel::new(topo.clone(), latency.clone(), contention, 0);
        stencil::run_sim(cfg.clone(), net, run_cfg.clone())
    };
    let single = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), run_cfg.clone());
    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 1);

    assert_eq!(sim.block_sums, seq, "sim matches the sequential oracle");
    assert_eq!(single.block_sums, seq, "single-process threaded matches");
    assert_eq!(multi.block_sums, seq, "multi-node TCP run matches bit-exactly");
    assert!(multi.report.network.cross_messages > 0, "traffic actually crossed the wire");
    assert!(multi.report.unrecoverable.is_none());
    // Every PE's work shows up in the merged report, not just node 0's.
    assert!(multi.report.pe_messages.iter().all(|&m| m > 0), "merged per-PE counts: {:?}", multi.report.pe_messages);

    // Each node hosts two PEs, so with stealing on every PE thread has a
    // sibling to take work from; a steal only remaps execution.
    let stealing = run_stencil_net(&cfg, &topo, &latency, &RunConfig { steal: true, ..run_cfg.clone() }, 1);
    assert_eq!(stealing.block_sums, seq, "multi-node TCP run with stealing matches bit-exactly");
}

#[test]
fn striped_streams_with_flow_control_stay_bit_exact() {
    // k=4 striped sockets reorder packets between streams; the reliable
    // layer (armed by flow control) re-sequences, so results hold.
    let cfg = small_stencil(16, 4, None);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
    let run_cfg =
        RunConfig { agg: Some(AggConfig::default()), flow: Some(FlowConfig::default()), ..RunConfig::default() };
    let seq = seq_reference(&cfg);
    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 4);
    assert_eq!(multi.block_sums, seq, "striped run is bit-exact");
}

#[test]
fn two_node_leanmd_matches_sim_bit_exactly() {
    let cfg = MdConfig::validation(3, 4, 4);
    let topo = Topology::two_cluster(4);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(300));

    let sim = {
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        leanmd::run_sim(cfg.clone(), net, RunConfig::default())
    };

    let manifest = reserve_manifest(2);
    let mut handles = Vec::new();
    for node in (0..2u32).rev() {
        let cfg = cfg.clone();
        let topo = topo.clone();
        let latency = latency.clone();
        let run_cfg = RunConfig { net: Some(NetConfig::new(node, manifest.clone())), ..RunConfig::default() };
        handles.push((node, thread::spawn(move || leanmd::run_threaded(cfg, topo, latency, run_cfg))));
    }
    let mut node0 = None;
    for (node, h) in handles {
        let out = h.join().unwrap_or_else(|_| panic!("node {node} panicked"));
        if node == 0 {
            node0 = Some(out);
        }
    }
    let multi = node0.expect("node 0");
    assert_eq!(multi.checksums, sim.checksums, "LeanMD positions bit-exact over TCP");
    assert_eq!(multi.kinetic, sim.kinetic, "LeanMD energies bit-exact over TCP");
}

#[test]
fn crash_on_a_remote_node_recovers_over_survivors() {
    // Kill a PE hosted by node 2 mid-run (injected CrashTrigger — the
    // thread dies silently, as if the process seized).  Node 0's failure
    // detector must notice over the wire, run the cross-process recovery
    // protocol (gather buddy pieces, assemble, restart), shrink onto the
    // survivors and still finish bit-exact.
    let cfg = small_stencil(16, 6, Some(1));
    let topo = Topology::uniform(3, 2);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));

    let clean = stencil::run_threaded(cfg.clone(), topo.clone(), latency.clone(), RunConfig::default());
    let n = clean.report.pe_messages[4] / 2;
    assert!(n > 0, "calibration run must exercise PE 4");
    let plan =
        FailurePlan::new().crash_after_messages(Pe(4), n).with_heartbeat(Dur::from_millis(15), Dur::from_millis(150));
    let run_cfg = RunConfig { failure_plan: Some(plan), ..RunConfig::default() };

    let multi = run_stencil_net(&cfg, &topo, &latency, &run_cfg, 1);
    assert_eq!(multi.block_sums, clean.block_sums, "recovery over TCP is bit-exact");
    assert_eq!(multi.report.failures_detected, 1);
    assert_eq!(multi.report.recoveries, 1);
    assert_eq!(multi.report.failures[0].pe, Pe(4));
    assert!(multi.report.unrecoverable.is_none());
    assert!(multi.report.checkpoints_taken > 0);
}

/// A do-nothing one-PE-per-cluster program: starts, exits.
fn trivial_program() -> Program {
    let mut p = Program::new();
    struct Noop;
    impl gridmdo::runtime::Chare for Noop {
        fn receive(&mut self, _entry: EntryId, _payload: &[u8], _ctx: &mut gridmdo::runtime::Ctx<'_>) {}
    }
    let _arr = p.array("noop", 1, Mapping::Block, |_| Box::new(Noop) as Box<dyn gridmdo::runtime::Chare>);
    p.on_startup(|ctl| ctl.exit());
    p
}

#[test]
fn engine_rejects_a_peer_with_a_different_topology() {
    // Node 0 and node 1 disagree about the job's shape (different cluster
    // layouts with the same cluster count).  The handshake digest must
    // catch it: both sides get a structured HandshakeMismatch, nobody
    // hangs, nobody panics.
    let (listeners, addrs) = localhost_rendezvous(2).expect("rendezvous");
    use gridmdo::netsim::topology::ClusterSpec;
    let topo_a =
        Topology::new(vec![ClusterSpec { name: "A".into(), pes: 1 }, ClusterSpec { name: "B".into(), pes: 1 }]);
    let topo_b =
        Topology::new(vec![ClusterSpec { name: "A".into(), pes: 2 }, ClusterSpec { name: "B".into(), pes: 1 }]);
    let errs: Arc<Mutex<Vec<NetError>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for (node, (listener, topo)) in listeners.into_iter().zip([topo_a, topo_b]).enumerate() {
        let addrs = addrs.clone();
        let errs = Arc::clone(&errs);
        handles.push(thread::spawn(move || {
            let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
            let mut tcfg = ThreadedConfig::new(latency);
            tcfg.max_wall = Duration::from_secs(10);
            let net = NetConfig::new(node as u32, addrs);
            let session = NetSession::with_listener(net, listener).expect("session");
            let run_cfg = RunConfig { net: Some(NetConfig::new(node as u32, Vec::new())), ..RunConfig::default() };
            let _ = run_cfg; // run_with_session carries the session; cfg.net is not re-read
            match run_with_session(topo.clone(), tcfg, RunConfig::default(), trivial_program(), session) {
                Ok(_) => panic!("node {node}: a mismatched topology must not produce a report"),
                Err(e) => errs.lock().expect("errs").push(e),
            }
        }));
    }
    for h in handles {
        h.join().expect("node thread must not panic");
    }
    let errs = errs.lock().expect("errs");
    assert_eq!(errs.len(), 2);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            NetError::HandshakeMismatch { field: HandshakeField::TopologyDigest, .. } | NetError::PeerClosed { .. }
        )),
        "at least one side reports the digest mismatch: {errs:?}"
    );
    assert!(
        errs.iter().all(|e| matches!(e, NetError::HandshakeMismatch { .. } | NetError::PeerClosed { .. })),
        "both sides fail structurally: {errs:?}"
    );
}

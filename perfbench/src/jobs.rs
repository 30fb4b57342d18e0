//! The four benchmark jobs (the first three declared in `BENCHMARK.json`;
//! see the crate docs for why `sim_sweep` is not), each driven only through the runtime's public
//! entry points, and the checks on their outputs.
//!
//! Every job fits a 2-core host: one process, two PEs (the simulated
//! sweep's 16 PEs are virtual and run on one thread), at most two node
//! threads and one loopback TCP node pair.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mdo_apps::stencil::{self, seq::SeqStencil, StencilConfig, StencilCost, StencilOutcome};
use mdo_core::prelude::*;
use mdo_core::{ThreadedConfig, ThreadedEngine};
use mdo_net::{localhost_rendezvous, NetConfig};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{LatencyMatrix, SplitMix64};

/// The paper's measured one-way NCSA↔ANL latency (§5.1).
pub const TERAGRID: Dur = Dur::from_micros(1725);

/// Cross-cluster latencies of the simulated sweep.
pub const SWEEP_LATENCIES: [Dur; 3] = [TERAGRID, Dur::from_millis(16), Dur::from_millis(64)];

/// Steps of the simulated runs whose virtual times and overlaps are
/// checked against the recorded values.
pub const SIM_CHECK_STEPS: u32 = 100;

/// Virtual ms/step at each sweep latency after [`SIM_CHECK_STEPS`] steps.
/// The simulation is deterministic, so any change to these values is a
/// change to the model, never a performance change.
pub const SIM_VIRT_STEP_MS: [f64; 3] = [17.3967281, 17.8178589, 65.716604];

/// WAN-overlap fraction at each sweep latency of the same runs, obs armed.
pub const SIM_OVERLAP: [f64; 3] = [0.9959857143404036, 0.9546873808662119, 0.3212666323452926];

/// Ping-pong payload size.
pub const PING_BYTES: usize = 32;

/// Wall-clock limit for any one job; a run that reaches it is reported as
/// failed by its output check.
const MAX_WALL: Duration = Duration::from_secs(90);

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 2048² stencil, real kernel, threaded engine, 1.725 ms WAN.
    StencilGrid,
    /// A 256² stencil in 1024 blocks over two loopback TCP nodes.
    FinegrainTcp,
    /// One 32-B message bouncing between two loopback TCP nodes.
    PingpongTcp,
    /// The paper's cost-model stencil on the simulation engine.
    SimSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::StencilGrid, Workload::FinegrainTcp, Workload::PingpongTcp, Workload::SimSweep];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilGrid => "stencil_grid",
            Workload::FinegrainTcp => "finegrain_tcp",
            Workload::PingpongTcp => "pingpong_tcp",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations (steps or rounds) of the short and long run of one
    /// trial; the steady-state cost per operation is their difference.
    pub fn trial_ops(self) -> (u32, u32) {
        match self {
            Workload::StencilGrid => (20, 100),
            Workload::FinegrainTcp => (20, 120),
            Workload::PingpongTcp => (0, 2_000),
            Workload::SimSweep => (20, SIM_CHECK_STEPS),
        }
    }

    /// The stencil problem of the stencil workloads (`steps` steps).
    pub fn stencil(self, steps: u32) -> Option<StencilConfig> {
        let (mesh, objects, mapping, compute) = match self {
            Workload::StencilGrid => (2048, 64, Mapping::Block, true),
            Workload::FinegrainTcp => (256, 1024, Mapping::RoundRobin, true),
            Workload::SimSweep => (2048, 1024, Mapping::Block, false),
            Workload::PingpongTcp => return None,
        };
        Some(StencilConfig { mesh, objects, steps, compute, cost: StencilCost::default(), mapping, lb_period: None })
    }

    /// PEs of the job.
    pub fn pes(self) -> u32 {
        match self {
            Workload::SimSweep => 16,
            _ => 2,
        }
    }

    /// Injected cross-cluster latency of the job (the sweep's largest
    /// point for the simulated workload).
    pub fn wan_latency(self) -> Dur {
        match self {
            Workload::StencilGrid => TERAGRID,
            Workload::SimSweep => SWEEP_LATENCIES[2],
            Workload::FinegrainTcp | Workload::PingpongTcp => Dur::ZERO,
        }
    }

    /// Aggregation setting of the job.
    pub fn agg(self) -> Option<AggConfig> {
        match self {
            Workload::FinegrainTcp | Workload::PingpongTcp => Some(AggConfig::default()),
            Workload::StencilGrid | Workload::SimSweep => None,
        }
    }

    /// Whether the job runs over the loopback TCP node pair.
    pub fn tcp(self) -> bool {
        matches!(self, Workload::FinegrainTcp | Workload::PingpongTcp)
    }
}

/// What one job run produced, reduced to what the benchmark checks and
/// reports.
pub struct JobRun {
    /// Wall time of the whole job, set-up and teardown included.
    pub wall_s: f64,
    /// Operations the job performed.
    pub ops: u32,
    /// The merged run report (the 64 ms point for the sweep).
    pub report: RunReport,
    /// Why the output check failed, if it did.
    pub error: Option<String>,
    /// Round-trip samples in ns (ping-pong only).
    pub rtt_ns: Vec<u64>,
    /// Virtual ms/step per sweep latency (simulated sweep only).
    pub virt_ms: Vec<f64>,
    /// Overlap fraction per sweep latency (obs-armed sweep only).
    pub overlap: Vec<f64>,
}

/// Sequential reference block sums, computed once per process outside
/// any timed region.
pub struct Reference {
    sums: Vec<(u32, Vec<f64>)>,
}

impl Reference {
    /// Block sums of `cfg`'s problem after each of `steps`.
    pub fn new(cfg: &StencilConfig, steps: &[u32]) -> Reference {
        let mut wanted = steps.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut seq = SeqStencil::new(cfg.mesh);
        let mut done = 0;
        let mut sums = Vec::new();
        for s in wanted {
            seq.run(s - done);
            done = s;
            sums.push((s, seq.block_sums(cfg.k())));
        }
        Reference { sums }
    }

    fn at(&self, steps: u32) -> &[f64] {
        &self.sums.iter().find(|(s, _)| *s == steps).expect("reference computed for this step count").1
    }
}

/// Run-level failures every engine reports the same way.
fn report_error(report: &RunReport) -> Option<String> {
    if let Some(e) = &report.unrecoverable {
        return Some(format!("unrecoverable: {e:?}"));
    }
    report.transport_error.as_ref().map(|e| format!("transport_error: {e:?}"))
}

fn check_sums(out: &StencilOutcome, reference: &Reference, steps: u32) -> Option<String> {
    let want = reference.at(steps);
    let same =
        out.block_sums.len() == want.len() && out.block_sums.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
    (!same).then(|| {
        format!("block sums after {steps} steps differ from the sequential reference ({} blocks)", out.block_sums.len())
    })
}

/// Reserve distinct localhost ports for a node pair, then release them for
/// the nodes to rebind.
fn manifest() -> Vec<SocketAddr> {
    let (listeners, addrs) = localhost_rendezvous(2).expect("bind localhost ports for the node pair");
    drop(listeners);
    addrs
}

fn threaded_config(latency: Dur, topo: &Topology) -> ThreadedConfig {
    let mut tcfg = ThreadedConfig::new(LatencyMatrix::uniform(topo, Dur::ZERO, latency));
    tcfg.max_wall = MAX_WALL;
    tcfg
}

/// Run `node` for node ids 1 and 0 on their own threads (node 1 first, as
/// a launcher would), each with its own `RunConfig::net`, and return node
/// 0's result.
fn on_node_pair<T: Send + 'static>(
    run_cfg: &RunConfig,
    node: impl Fn(u32, RunConfig) -> T + Send + Sync + 'static,
) -> T {
    let addrs = manifest();
    let node = Arc::new(node);
    let handles: Vec<_> = [1u32, 0]
        .into_iter()
        .map(|id| {
            let mut cfg = run_cfg.clone();
            cfg.net = Some(NetConfig::new(id, addrs.clone()));
            let node = Arc::clone(&node);
            thread::Builder::new()
                .name(format!("bench-node{id}"))
                .spawn(move || node(id, cfg))
                .expect("spawn node thread")
        })
        .collect();
    let mut out = handles.into_iter().map(|h| h.join().expect("node thread panicked"));
    let _node1 = out.next();
    out.next().expect("node 0 result")
}

/// Run a stencil job of `steps` steps and check its block sums.
pub fn run_stencil(w: Workload, steps: u32, seed: u64, reference: &Reference) -> JobRun {
    let cfg = w.stencil(steps).expect("stencil workload");
    let topo = Topology::two_cluster(w.pes());
    let run_cfg = RunConfig { seed, agg: w.agg(), ..RunConfig::default() };
    let t0 = Instant::now();
    let out = if w.tcp() {
        let latency = w.wan_latency();
        on_node_pair(&run_cfg, move |_, rc| {
            stencil::run_threaded_with(cfg.clone(), topo.clone(), threaded_config(latency, &topo), rc)
        })
    } else {
        stencil::run_threaded_with(cfg, topo.clone(), threaded_config(w.wan_latency(), &topo), run_cfg)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let error = report_error(&out.report).or_else(|| check_sums(&out, reference, steps));
    JobRun {
        wall_s,
        ops: steps,
        report: out.report,
        error,
        rtt_ns: Vec::new(),
        virt_ms: Vec::new(),
        overlap: Vec::new(),
    }
}

/// Run the simulated latency sweep for `steps` steps (obs armed when
/// `obs`), checking every virtual-time output against the recorded values
/// when the run has [`SIM_CHECK_STEPS`] steps.
pub fn run_sweep(steps: u32, seed: u64, obs: bool) -> JobRun {
    let t0 = Instant::now();
    let (mut virt_ms, mut overlap, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for lat in SWEEP_LATENCIES {
        let cfg = Workload::SimSweep.stencil(steps).expect("stencil workload");
        let net = NetworkModel::two_cluster_sweep(Workload::SimSweep.pes(), lat);
        let run_cfg = RunConfig { seed, obs: obs.then(ObsConfig::new), ..RunConfig::default() };
        let out = stencil::run_sim(cfg, net, run_cfg);
        virt_ms.push(out.ms_per_step);
        overlap.extend(out.report.overlap_fraction());
        reports.push(out.report);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut error = reports.iter().find_map(report_error);
    let exact = |got: &[f64], want: &[f64]| {
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    if steps == SIM_CHECK_STEPS && !exact(&virt_ms, &SIM_VIRT_STEP_MS) {
        error = Some(format!("virtual ms/step {virt_ms:?} differ from the recorded {SIM_VIRT_STEP_MS:?}"));
    }
    if steps == SIM_CHECK_STEPS && obs && !exact(&overlap, &SIM_OVERLAP) {
        error = Some(format!("overlap fractions {overlap:?} differ from the recorded {SIM_OVERLAP:?}"));
    }
    let report = reports.pop().expect("three sweep points");
    JobRun { wall_s, ops: steps, report, error, rtt_ns: Vec::new(), virt_ms, overlap }
}

/// Entry: start the rally (broadcast at startup).
const START: EntryId = EntryId(1);
/// Entry: the ball (payload: the round's generated bytes).
const BALL: EntryId = EntryId(2);

/// The ping-pong payload of `round`: the round number, then bytes drawn
/// from the workload seed.  The runtime sees only these bytes.
pub fn ping_payload(seed: u64, round: u32) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (u64::from(round) << 32 | 0x9e37));
    let mut out = round.to_le_bytes().to_vec();
    while out.len() < PING_BYTES {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(PING_BYTES);
    out
}

/// State the two ping-pong chares share with the benchmark (both nodes
/// run in this process).
struct Rally {
    seed: u64,
    rounds: u32,
    rtt_ns: Mutex<Vec<u64>>,
    errors: Mutex<Vec<String>>,
    pong_seen: AtomicU32,
}

impl Rally {
    fn fail(&self, why: String) {
        self.errors.lock().expect("rally errors lock").push(why);
    }
}

/// Element 0 (node 0): serves each round and times its round trip.
struct Ping {
    rally: Arc<Rally>,
    round: u32,
    sent: Instant,
}

impl Ping {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        self.sent = Instant::now();
        ctx.send(me.array, ElemId(1), BALL, ping_payload(self.rally.seed, self.round));
    }
}

impl Chare for Ping {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => self.serve(ctx),
            BALL => {
                let rtt = self.sent.elapsed().as_nanos() as u64;
                if payload != ping_payload(self.rally.seed, self.round).as_slice() {
                    self.rally.fail(format!("round {} came back altered or out of order", self.round));
                }
                self.rally.rtt_ns.lock().expect("rtt lock").push(rtt);
                self.round += 1;
                if self.round == self.rally.rounds {
                    ctx.exit();
                } else {
                    self.serve(ctx);
                }
            }
            other => self.rally.fail(format!("ping got unknown entry {other:?}")),
        }
    }
}

/// Element 1 (node 1): checks each round arrives once, in order, intact,
/// and returns it.
struct Pong {
    rally: Arc<Rally>,
}

impl Chare for Pong {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            START => {}
            BALL => {
                let round = self.rally.pong_seen.fetch_add(1, Ordering::Relaxed);
                if payload != ping_payload(self.rally.seed, round).as_slice() {
                    self.rally.fail(format!("pong: round {round} arrived altered, twice or out of order"));
                }
                let me = ctx.me();
                ctx.send(me.array, ElemId(0), BALL, payload.to_vec());
            }
            other => self.rally.fail(format!("pong got unknown entry {other:?}")),
        }
    }
}

fn rally_program(rally: &Arc<Rally>) -> Program {
    let mut p = Program::new();
    let rally = Arc::clone(rally);
    let arr = p.array("pingpong", 2, Mapping::Block, move |elem| {
        let rally = Arc::clone(&rally);
        if elem == ElemId(0) {
            Box::new(Ping { rally, round: 0, sent: Instant::now() }) as Box<dyn Chare>
        } else {
            Box::new(Pong { rally }) as Box<dyn Chare>
        }
    });
    p.on_startup(move |ctl| ctl.broadcast(arr, START, vec![]));
    p
}

/// Run a closed-loop ping-pong of `rounds` rounds and check every round
/// came back exactly once with its payload intact.
pub fn run_pingpong(rounds: u32, seed: u64) -> JobRun {
    let w = Workload::PingpongTcp;
    let rally = Arc::new(Rally {
        seed,
        rounds,
        rtt_ns: Mutex::new(Vec::with_capacity(rounds as usize)),
        errors: Mutex::new(Vec::new()),
        pong_seen: AtomicU32::new(0),
    });
    let topo = Topology::two_cluster(w.pes());
    let run_cfg = RunConfig { seed, agg: w.agg(), ..RunConfig::default() };
    let t0 = Instant::now();
    let node_rally = Arc::clone(&rally);
    let report = on_node_pair(&run_cfg, move |_, rc| {
        ThreadedEngine::new(topo.clone(), threaded_config(Dur::ZERO, &topo), rc).run(rally_program(&node_rally))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let rtt_ns = std::mem::take(&mut *rally.rtt_ns.lock().expect("rtt lock"));
    let mut error = report_error(&report).or_else(|| rally.errors.lock().expect("errors lock").first().cloned());
    let pong_seen = rally.pong_seen.load(Ordering::Relaxed);
    if error.is_none() && (rtt_ns.len() != rounds as usize || pong_seen != rounds) {
        error = Some(format!("{rounds} rounds sent, {pong_seen} reached pong, {} came back", rtt_ns.len()));
    }
    JobRun { wall_s, ops: rounds, report, error, rtt_ns, virt_ms: Vec::new(), overlap: Vec::new() }
}

/// Run workload `w` for `ops` operations.
pub fn run_job(w: Workload, ops: u32, seed: u64, reference: Option<&Reference>) -> JobRun {
    match w {
        Workload::PingpongTcp => run_pingpong(ops, seed),
        Workload::SimSweep => run_sweep(ops, seed, false),
        Workload::StencilGrid | Workload::FinegrainTcp => {
            run_stencil(w, ops, seed, reference.expect("stencil jobs are checked against a reference"))
        }
    }
}

/// The sequential reference a workload's runs of `ops` operations are
/// checked against (none for the jobs that check themselves).
pub fn reference_for(w: Workload, ops: &[u32]) -> Option<Reference> {
    match w {
        Workload::StencilGrid | Workload::FinegrainTcp => {
            Some(Reference::new(&w.stencil(1).expect("stencil workload"), ops))
        }
        Workload::PingpongTcp | Workload::SimSweep => None,
    }
}

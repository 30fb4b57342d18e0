//! Multi-process execution: the threaded engine over real TCP.
//!
//! [`run_multi_process`] is what [`super::threaded::ThreadedEngine::run`]
//! dispatches to when [`RunConfig::net`] is set.  Each OS process hosts
//! the PEs of exactly one topology cluster ("node" = cluster), so the
//! process boundary coincides with the WAN boundary: everything that
//! crosses the mdo-net wire is exactly the traffic the in-process engine
//! routes through its cross-cluster device chain — delay, CRC and fault
//! devices run sender-side before the socket, and the reliable layer's
//! credits, acks and retransmissions ride the same packets they always
//! did.  That is why a multi-process run is bit-exact with a
//! single-process one: above the [`Wire`](mdo_vmi::Wire) seam nothing
//! changed.
//!
//! ## Control plane
//!
//! Node 0 (which hosts PE 0 and therefore startup, reductions and the
//! failure detector) doubles as the run coordinator.  Control records
//! ride the established pair sockets:
//!
//! * normal end — every node sends `Report` (its share of the final
//!   accounting) to node 0, which merges them into one [`RunReport`] and
//!   broadcasts `Done`;
//! * failure — node 0 detects dead PEs (missed heartbeats, panic flags,
//!   a whole peer process going dark) and broadcasts
//!   `Recover{generation, dead}`; survivors stop, ship their buddy
//!   checkpoint pieces back, node 0 assembles the newest complete
//!   snapshot and broadcasts `Restart{snapshot}`; everyone shrinks the
//!   topology with `without_pes` (deterministic, so no coordination
//!   needed) and reconnects the mesh at the next generation number;
//! * anything unrecoverable — `Abort{why}`, and every process stands
//!   down with a structured error instead of hanging.
//!
//! ## Unsupported in net mode
//!
//! `join_plan` (elastic expand) and the observability subsystem
//! (`obs`) are single-process features for now: joins would need
//! a process launcher in the control plane, and obs recordings are too
//! large to ship casually.  Both are ignored with a warning.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_net::{NetEvent, NetMesh, NetSession, TransportError as NetError};
use mdo_netsim::network::NetworkStats;
use mdo_netsim::{
    ClusterId, Dur, FailureCause, FaultModelStats, PeFailed, Time, Topology, TransportError, UnrecoverableError,
};
use mdo_obs::{CounterSet, Ctr, ObsConfig};
use mdo_vmi::{TransportConfig, Wire, WireBinding};

use crate::checkpoint::{assemble_buddy_snapshot, FtPiece, Snapshot};
use crate::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use crate::ids::{ArrayId, ElemId, ObjKey};
use crate::node::{split_program, HostParts, Node, NodeShared};
use crate::program::{Program, RunConfig, RunReport};
use crate::wire::{WireReader, WireWriter};

use super::threaded::{
    bank_of, elapsed_ns, spawn_pe, MsgStack, PeResult, ThreadCtl, ThreadedConfig, PE_ALIVE, PE_CRASHED,
};

// ---------------------------------------------------------------------------
// Control-plane protocol
// ---------------------------------------------------------------------------

const CTL_REPORT: u8 = 1;
const CTL_DONE: u8 = 2;
const CTL_RECOVER: u8 = 3;
const CTL_PIECES: u8 = 4;
const CTL_RESTART: u8 = 5;
const CTL_ABORT: u8 = 6;

/// Why a node ordered (or relayed) an abort.
#[derive(Clone, Debug)]
enum AbortReason {
    /// Free-form (deadline, rendezvous trouble, peer death without a plan).
    Other(String),
    /// A PE failed with no failure plan armed (original numbering) —
    /// node 0 maps this back to [`UnrecoverableError::NoFailurePlan`] so
    /// the merged report matches the single-process engine's.
    NoFailurePlan(u32),
    /// The reliable layer exhausted retries somewhere.
    Transport { src: u32, dst: u32, seq: u64, attempts: u32 },
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Other(s) => f.write_str(s),
            AbortReason::NoFailurePlan(pe) => write!(f, "PE {pe} failed with no failure plan armed"),
            AbortReason::Transport { src, dst, attempts, .. } => {
                write!(f, "delivery {src} -> {dst} failed after {attempts} attempts")
            }
        }
    }
}

/// A control-plane message (rides `KIND_CONTROL` records on the mesh).
enum Ctl {
    /// A node's share of the final accounting (encoded [`NodeReport`]).
    Report(NodeReport),
    /// Node 0 has merged everything; stand down cleanly.
    Done,
    /// Node 0 orders a shrink-recovery: stop the current generation.
    Recover { new_gen: u32, dead_cur: Vec<u32>, dead_nodes: Vec<u32> },
    /// A survivor's buddy-checkpoint pieces for the recovery in progress.
    Pieces(Vec<FtPiece>),
    /// The assembled snapshot everyone restarts from.
    Restart { snap_round: u32, snapshot: Vec<u8> },
    /// The run cannot continue; every process stands down.
    Abort(AbortReason),
}

fn encode_ctl(c: &Ctl) -> Vec<u8> {
    let mut w = WireWriter::new();
    match c {
        Ctl::Report(r) => {
            w.u8(CTL_REPORT);
            r.encode(&mut w);
        }
        Ctl::Done => {
            w.u8(CTL_DONE);
        }
        Ctl::Recover { new_gen, dead_cur, dead_nodes } => {
            w.u8(CTL_RECOVER).u32(*new_gen).u32_slice(dead_cur).u32_slice(dead_nodes);
        }
        Ctl::Pieces(pieces) => {
            w.u8(CTL_PIECES).usize(pieces.len());
            for p in pieces {
                w.u32(p.epoch).u32(p.owner.0).u32(p.lb_round).usize(p.states.len());
                for (key, state) in &p.states {
                    w.u32(key.array.0).u32(key.elem.0).bytes(state);
                }
                w.u32_slice(&p.red_next);
            }
        }
        Ctl::Restart { snap_round, snapshot } => {
            w.u8(CTL_RESTART).u32(*snap_round).bytes(snapshot);
        }
        Ctl::Abort(reason) => {
            w.u8(CTL_ABORT);
            match reason {
                AbortReason::Other(s) => {
                    w.u8(0).str(s);
                }
                AbortReason::NoFailurePlan(pe) => {
                    w.u8(1).u32(*pe);
                }
                AbortReason::Transport { src, dst, seq, attempts } => {
                    w.u8(2).u32(*src).u32(*dst).u64(*seq).u32(*attempts);
                }
            }
        }
    }
    w.finish()
}

fn decode_ctl(bytes: &[u8]) -> Option<Ctl> {
    let mut r = WireReader::new(bytes);
    let ctl = match r.u8().ok()? {
        CTL_REPORT => Ctl::Report(NodeReport::decode(&mut r)?),
        CTL_DONE => Ctl::Done,
        CTL_RECOVER => {
            Ctl::Recover { new_gen: r.u32().ok()?, dead_cur: r.u32_vec().ok()?, dead_nodes: r.u32_vec().ok()? }
        }
        CTL_PIECES => {
            let n = r.usize().ok()?;
            let mut pieces = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let epoch = r.u32().ok()?;
                let owner = mdo_netsim::Pe(r.u32().ok()?);
                let lb_round = r.u32().ok()?;
                let n_states = r.usize().ok()?;
                let mut states = Vec::with_capacity(n_states.min(4096));
                for _ in 0..n_states {
                    let key = ObjKey { array: ArrayId(r.u32().ok()?), elem: ElemId(r.u32().ok()?) };
                    states.push((key, bytes::Bytes::from(r.bytes().ok()?.to_vec())));
                }
                let red_next = r.u32_vec().ok()?;
                pieces.push(FtPiece { epoch, owner, lb_round, states, red_next });
            }
            Ctl::Pieces(pieces)
        }
        CTL_RESTART => Ctl::Restart { snap_round: r.u32().ok()?, snapshot: r.bytes().ok()?.to_vec() },
        CTL_ABORT => Ctl::Abort(match r.u8().ok()? {
            0 => AbortReason::Other(r.str().ok()?.to_string()),
            1 => AbortReason::NoFailurePlan(r.u32().ok()?),
            2 => AbortReason::Transport {
                src: r.u32().ok()?,
                dst: r.u32().ok()?,
                seq: r.u64().ok()?,
                attempts: r.u32().ok()?,
            },
            _ => return None,
        }),
        _ => return None,
    };
    Some(ctl)
}

// ---------------------------------------------------------------------------
// Per-node accounting
// ---------------------------------------------------------------------------

/// Scalar tallies a node accumulates across its generations; the exact
/// shape that sums (or maxes) cleanly across nodes at merge time.
#[derive(Clone, Copy, Debug, Default)]
struct Sums {
    intra_msgs: u64,
    intra_bytes: u64,
    cross_msgs: u64,
    cross_bytes: u64,
    dropped: u64,
    corrupt_rejected: u64,
    dup_dropped: u64,
    reordered: u64,
    retransmits: u64,
    frames_sent: u64,
    coalesced: u64,
    bytes_saved: u64,
    flush_size: u64,
    flush_deadline: u64,
    credit_stalls: u64,
    credit_wait_ns: u64,
    sheds: u64,
    shed_bytes: u64,
    queue_full: u64,
    ckpt_bytes: u64,
    peak_mailbox_bytes: u64,
}

impl Sums {
    fn encode(&self, w: &mut WireWriter) {
        for v in self.as_array() {
            w.u64(v);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Sums> {
        let mut s = Sums::default();
        let mut vals = [0u64; 21];
        for v in vals.iter_mut() {
            *v = r.u64().ok()?;
        }
        s.set_array(vals);
        Some(s)
    }

    fn as_array(&self) -> [u64; 21] {
        [
            self.intra_msgs,
            self.intra_bytes,
            self.cross_msgs,
            self.cross_bytes,
            self.dropped,
            self.corrupt_rejected,
            self.dup_dropped,
            self.reordered,
            self.retransmits,
            self.frames_sent,
            self.coalesced,
            self.bytes_saved,
            self.flush_size,
            self.flush_deadline,
            self.credit_stalls,
            self.credit_wait_ns,
            self.sheds,
            self.shed_bytes,
            self.queue_full,
            self.ckpt_bytes,
            self.peak_mailbox_bytes,
        ]
    }

    fn set_array(&mut self, v: [u64; 21]) {
        [
            self.intra_msgs,
            self.intra_bytes,
            self.cross_msgs,
            self.cross_bytes,
            self.dropped,
            self.corrupt_rejected,
            self.dup_dropped,
            self.reordered,
            self.retransmits,
            self.frames_sent,
            self.coalesced,
            self.bytes_saved,
            self.flush_size,
            self.flush_deadline,
            self.credit_stalls,
            self.credit_wait_ns,
            self.sheds,
            self.shed_bytes,
            self.queue_full,
            self.ckpt_bytes,
            self.peak_mailbox_bytes,
        ] = v;
    }

    /// Fold another node's tallies in (sums, except the high-water mark).
    fn merge(&mut self, other: &Sums) {
        let peak = self.peak_mailbox_bytes.max(other.peak_mailbox_bytes);
        let mut a = self.as_array();
        for (x, y) in a.iter_mut().zip(other.as_array()) {
            *x += y;
        }
        self.set_array(a);
        self.peak_mailbox_bytes = peak;
    }
}

/// One node's complete share of the final accounting.
struct NodeReport {
    node: u32,
    end_ns: u64,
    /// (orig PE, busy ns, messages, max queue depth) for every PE this
    /// node ever hosted.
    entries: Vec<(u32, u64, u64, u64)>,
    sums: Sums,
    transport_error: Option<TransportError>,
}

impl NodeReport {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.node).u64(self.end_ns).usize(self.entries.len());
        for &(pe, busy, msgs, depth) in &self.entries {
            w.u32(pe).u64(busy).u64(msgs).u64(depth);
        }
        self.sums.encode(w);
        match &self.transport_error {
            None => {
                w.u8(0);
            }
            Some(e) => {
                w.u8(1).u32(e.src.0).u32(e.dst.0).u64(e.seq).u32(e.attempts);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<NodeReport> {
        let node = r.u32().ok()?;
        let end_ns = r.u64().ok()?;
        let n = r.usize().ok()?;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            entries.push((r.u32().ok()?, r.u64().ok()?, r.u64().ok()?, r.u64().ok()?));
        }
        let sums = Sums::decode(r)?;
        let transport_error = match r.u8().ok()? {
            0 => None,
            _ => Some(TransportError {
                src: mdo_netsim::Pe(r.u32().ok()?),
                dst: mdo_netsim::Pe(r.u32().ok()?),
                seq: r.u64().ok()?,
                attempts: r.u32().ok()?,
            }),
        };
        Some(NodeReport { node, end_ns, entries, sums, transport_error })
    }
}

/// A node's cumulative books across its generations (original PE
/// numbering, like the single-process engine's).
struct Books {
    busy_ns: Vec<u64>,
    msgs: Vec<u64>,
    qdepth: Vec<u64>,
    /// Original PEs this node has hosted in any generation.
    mine: BTreeSet<usize>,
    sums: Sums,
    end_ns: u64,
    transport_error: Option<TransportError>,
}

impl Books {
    fn new(orig_n_pes: usize) -> Self {
        Books {
            busy_ns: vec![0; orig_n_pes],
            msgs: vec![0; orig_n_pes],
            qdepth: vec![0; orig_n_pes],
            mine: BTreeSet::new(),
            sums: Sums::default(),
            end_ns: 0,
            transport_error: None,
        }
    }

    /// Close one generation's books from the local stack and results.
    fn absorb_generation(&mut self, stack: &MsgStack, results: &[PeResult], orig: &[mdo_netsim::Pe], mesh_drops: u64) {
        let MsgStack { raw, transport, agg, .. } = stack;
        let (intra_pkts, intra_bytes) = raw.intra_traffic();
        let (cross_pkts, cross_bytes) = raw.cross_traffic();
        self.sums.intra_msgs += intra_pkts;
        self.sums.intra_bytes += intra_bytes;
        self.sums.cross_msgs += cross_pkts;
        self.sums.cross_bytes += cross_bytes;
        let (dropped, crc_rejected, reordered) = stack.fault_stats();
        self.sums.dropped += dropped;
        // Records the net reader could not parse were dropped the same way
        // a CRC-rejected packet is: counted, recovered by retransmission.
        self.sums.corrupt_rejected += crc_rejected + mesh_drops;
        self.sums.dup_dropped += transport.dup_dropped();
        self.sums.reordered += reordered;
        self.sums.retransmits += transport.retransmits();
        let ast = agg.stats();
        self.sums.frames_sent += ast.frames_sent;
        self.sums.coalesced += ast.envelopes_coalesced;
        self.sums.bytes_saved += ast.bytes_saved;
        self.sums.flush_size += ast.flush_by_size;
        self.sums.flush_deadline += ast.flush_by_deadline;
        self.sums.credit_stalls += transport.credit_stalls();
        self.sums.credit_wait_ns += transport.credit_wait_ns();
        self.sums.sheds += ast.envelopes_shed;
        self.sums.shed_bytes += ast.shed_bytes;
        self.sums.queue_full += ast.queue_full;
        for r in results {
            let o = orig[r.pe.index()].index();
            self.mine.insert(o);
            self.busy_ns[o] += r.busy.as_nanos();
            self.msgs[o] += r.messages;
            let (depth, bytes) = stack.high_water(r.pe);
            self.qdepth[o] = self.qdepth[o].max(depth as u64);
            self.sums.peak_mailbox_bytes = self.sums.peak_mailbox_bytes.max(bytes);
            self.sums.ckpt_bytes += r.ft_bytes;
        }
    }

    fn to_report(&self, node: u32) -> NodeReport {
        NodeReport {
            node,
            end_ns: self.end_ns,
            entries: self.mine.iter().map(|&o| (o as u32, self.busy_ns[o], self.msgs[o], self.qdepth[o])).collect(),
            sums: self.sums,
            transport_error: self.transport_error,
        }
    }

    /// Fold a remote node's report into the coordinator's books.
    fn merge_report(&mut self, r: &NodeReport) {
        for &(pe, busy, msgs, depth) in &r.entries {
            let o = pe as usize;
            if o < self.busy_ns.len() {
                self.busy_ns[o] += busy;
                self.msgs[o] += msgs;
                self.qdepth[o] = self.qdepth[o].max(depth);
            }
        }
        self.sums.merge(&r.sums);
        // The run ended when the first exit was announced anywhere.
        if r.end_ns > 0 && (self.end_ns == 0 || r.end_ns < self.end_ns) {
            self.end_ns = r.end_ns;
        }
        if self.transport_error.is_none() {
            self.transport_error = r.transport_error;
        }
    }
}

// ---------------------------------------------------------------------------
// The run itself
// ---------------------------------------------------------------------------

/// Wait up to `deadline` for the next mesh event (50 ms poll slices so a
/// passed deadline is noticed promptly).
fn wait_event(mesh: &NetMesh, deadline: Instant) -> Option<NetEvent> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return None;
        }
        if let Some(ev) = mesh.next_event(remaining.min(Duration::from_millis(50))) {
            return Some(ev);
        }
    }
}

/// Instantiate this node's local [`Node`]s for the current topology.
fn build_local(shared: &Arc<NodeShared>, me: u32, host_parts: &mut Option<HostParts>) -> Vec<Node> {
    shared
        .topo
        .pes_in(ClusterId(me as u16))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|pe| {
            let h = if pe == mdo_netsim::Pe(0) {
                host_parts.take().unwrap_or_else(HostParts::empty)
            } else {
                HostParts::empty()
            };
            Node::new(Arc::clone(shared), pe, h)
        })
        .collect()
}

/// Run this process's share of a multi-process job, binding the listen
/// address named in [`RunConfig::net`].  Every process runs the same
/// program with the same config; node 0 returns the merged report, the
/// others a local stub (their accounting went to node 0).
pub fn run_multi_process(
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
    program: Program,
) -> Result<RunReport, NetError> {
    let net = cfg.net.clone().ok_or_else(|| NetError::Malformed { what: "RunConfig::net unset".into() })?;
    let session = NetSession::bind(net)?;
    run_with_session(topo, tcfg, cfg, program, session)
}

/// [`run_multi_process`] over an already-bound [`NetSession`] — the
/// hermetic-test entry point (bind port 0 first, build the manifest from
/// real addresses, then hand each node its listener).
pub fn run_with_session(
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
    program: Program,
    session: NetSession,
) -> Result<RunReport, NetError> {
    let me = session.node();
    let n_nodes = session.config().num_nodes();
    let streams = session.config().streams;
    if n_nodes != topo.num_clusters() {
        return Err(NetError::Malformed {
            what: format!("{}-node manifest for a {}-cluster topology", n_nodes, topo.num_clusters()),
        });
    }
    if streams > 1 && cfg.flow.is_none() && cfg.fault_plan.is_none() {
        // Striped streams reorder packets between each other; only the
        // reliable layer (armed by flow control or a fault plan) restores
        // delivery order for the payloads that need it.
        return Err(NetError::Malformed {
            what: "streams > 1 requires flow control or a fault plan (the reliable layer re-sequences)".into(),
        });
    }
    if cfg.join_plan.is_some() {
        eprintln!("mdo-net node {me}: join_plan is not supported in multi-process mode; ignoring");
    }
    if cfg.obs_active() {
        eprintln!("mdo-net node {me}: obs is not supported in multi-process mode; recording disabled");
    }
    let is_host = me == 0;

    let orig_n_pes = topo.num_pes();
    let failure_plan = cfg.failure_plan.clone();
    let restart_cfg = cfg.clone();
    let (mut shared, host) = split_program(program, topo, cfg);

    let decode_rejected = Arc::new(AtomicU64::new(0));
    let exit_announced = Arc::new(AtomicBool::new(false));
    let end_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let deadline = t0 + tcfg.max_wall;

    let mut orig: Vec<mdo_netsim::Pe> = (0..orig_n_pes as u32).map(mdo_netsim::Pe).collect();
    let mut pending = failure_plan.as_ref().map(|p| p.crashes.clone()).unwrap_or_default();
    let mut books = Books::new(orig_n_pes);
    let mut gctr = CounterSet::new();
    let mut faults_total = FaultModelStats::default();
    let mut failures: Vec<PeFailed> = Vec::new();
    let mut unrecoverable: Option<UnrecoverableError> = None;
    let mut lb_rounds_total = 0u32;
    let mut migrations_total = 0u64;
    let mut rebalance_total = 0u32;
    let ckpt_done = Arc::new(AtomicU64::new(0));
    gctr.bump(Ctr::Generations);

    let mut live: Vec<u32> = (0..n_nodes as u32).collect();
    let mut mesh_gen: u32 = 0;
    // Remote reports can arrive any time after a peer finishes; stash them.
    let mut host_reports: Vec<Option<NodeReport>> = (0..n_nodes).map(|_| None).collect();
    let mut host_parts = Some(host);
    let mut nodes: Vec<Node> = build_local(&shared, me, &mut host_parts);
    let mut deadline_hit = false;

    'generations: loop {
        let gen_topo = shared.topo.clone();
        let n_pes = gen_topo.num_pes();
        ckpt_done.store(0, Ordering::Release);
        let local_pes: Vec<mdo_netsim::Pe> = gen_topo.pes_in(ClusterId(me as u16)).collect();

        let mesh = Arc::new(session.establish(mesh_gen, &gen_topo, &live)?);

        let mut tc = TransportConfig::new(gen_topo.clone(), tcfg.latency.clone());
        tc.wire = Some(WireBinding::new(Arc::clone(&mesh) as Arc<dyn Wire>, &local_pes, n_pes));
        let stack = MsgStack::build(tc, &restart_cfg);
        let (raw, transport, agg) = (&stack.raw, &stack.transport, &stack.agg);
        // Inbound wire packets land straight in the destination PE's raw
        // mailbox — the exact point where in-process cross-chain traffic
        // lands, so the reliable layer and aggregator above see identical
        // bytes.  (A hostile dst is bounds-checked and dropped.)
        {
            let raw = Arc::clone(raw);
            mesh.start(move |pkt| {
                if pkt.dst.index() < n_pes {
                    raw.mailbox(pkt.dst).post(pkt);
                }
            });
        }

        let stop = Arc::new(AtomicBool::new(false));
        let status: Arc<Vec<AtomicU8>> = Arc::new((0..n_pes).map(|_| AtomicU8::new(PE_ALIVE)).collect());
        let gen_start = elapsed_ns(t0);
        let last_heard: Arc<Vec<AtomicU64>> = Arc::new((0..n_pes).map(|_| AtomicU64::new(gen_start)).collect());

        let base = ThreadCtl {
            agg: Arc::clone(agg),
            stop: Arc::clone(&stop),
            exit_announced: Arc::clone(&exit_announced),
            end_ns: Arc::clone(&end_ns),
            decode_rejected: Arc::clone(&decode_rejected),
            status: Arc::clone(&status),
            last_heard: Arc::clone(&last_heard),
            t0,
            topo: gen_topo.clone(),
            record_on: false,
            obs_cfg: ObsConfig::default(),
            orig_map: Arc::new(orig.clone()),
            compute_sleep: tcfg.compute_sleep,
            steal: restart_cfg.steal,
            hb_interval: failure_plan.as_ref().map(|p| p.hb_interval.to_std()),
            crash: None,
            msgs_before: 0,
            ckpt_done: Arc::clone(&ckpt_done),
        };
        // The bank holds only this process's PEs; stealing victims are
        // same-cluster siblings, so they are local too.
        let bank = bank_of(n_pes, std::mem::take(&mut nodes));
        let handles: Vec<_> = local_pes
            .iter()
            .map(|&pe| {
                let o = orig[pe.index()];
                let ctl = ThreadCtl {
                    crash: pending.iter().find(|s| s.pe == o).map(|s| s.trigger),
                    msgs_before: books.msgs[o.index()],
                    ..base.clone()
                };
                spawn_pe(format!("mdo-n{}pe{}", me, pe.0), pe, &bank, ctl)
            })
            .collect();

        if is_host {
            let startup = Envelope {
                src: mdo_netsim::Pe(0),
                dst: mdo_netsim::Pe(0),
                priority: SYSTEM_PRIORITY,
                sent_at_ns: gen_start,
                body: MsgBody::Startup,
            };
            agg.send_with(mdo_netsim::Pe(0), mdo_netsim::Pe(0), SYSTEM_PRIORITY, true, |buf| startup.encode_into(buf));
        }

        // ---- watchdog -------------------------------------------------
        let suspect_after = failure_plan.as_ref().map(|p| p.suspect_after.as_nanos());
        let mut flagged = vec![false; n_pes];
        let mut gen_failed: Vec<(mdo_netsim::Pe, FailureCause)> = Vec::new();
        let mut dead_nodes: Vec<u32> = Vec::new();
        let mut remote_recover: Option<(u32, Vec<mdo_netsim::Pe>, Vec<u32>)> = None;
        let mut abort: Option<NetError> = None;
        let mut transport_error: Option<TransportError> = None;
        loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            if Instant::now() >= deadline {
                deadline_hit = true;
                stop.store(true, Ordering::Release);
                break;
            }
            for &pe in &local_pes {
                let i = pe.index();
                if flagged[i] || status[i].load(Ordering::Acquire) == PE_ALIVE {
                    continue;
                }
                // A locally dead PE: a panic, or an injected crash firing.
                flagged[i] = true;
                if failure_plan.is_none() {
                    if is_host {
                        unrecoverable = Some(UnrecoverableError::NoFailurePlan { pe: orig[i] });
                    } else {
                        let reason = AbortReason::NoFailurePlan(orig[i].0);
                        let _ = mesh.send_control(0, &encode_ctl(&Ctl::Abort(reason.clone())));
                        abort = Some(NetError::Aborted { by: me, reason: reason.to_string() });
                    }
                } else if i == 0 {
                    unrecoverable = Some(UnrecoverableError::HostFailed);
                } else if is_host {
                    let cause = if status[i].load(Ordering::Acquire) == PE_CRASHED {
                        FailureCause::Injected
                    } else {
                        FailureCause::Panic
                    };
                    gen_failed.push((pe, cause));
                }
                // A remote PE dying with a plan armed is node 0's to
                // detect: its heartbeats stop, suspicion fires there.
            }
            if let Some(err) = transport.error() {
                if failure_plan.is_some() && err.dst != mdo_netsim::Pe(0) {
                    if is_host && !flagged[err.dst.index()] {
                        flagged[err.dst.index()] = true;
                        gen_failed.push((err.dst, FailureCause::Unresponsive));
                    }
                } else if is_host {
                    transport_error = Some(err);
                } else {
                    let reason =
                        AbortReason::Transport { src: err.src.0, dst: err.dst.0, seq: err.seq, attempts: err.attempts };
                    let _ = mesh.send_control(0, &encode_ctl(&Ctl::Abort(reason.clone())));
                    abort = Some(NetError::Aborted { by: me, reason: reason.to_string() });
                }
            }
            if is_host {
                if let Some(limit) = suspect_after {
                    let now = elapsed_ns(t0);
                    for i in 1..n_pes {
                        if flagged[i] {
                            continue;
                        }
                        if now.saturating_sub(last_heard[i].load(Ordering::Acquire)) > limit {
                            flagged[i] = true;
                            let cause = if status[i].load(Ordering::Acquire) == PE_CRASHED {
                                FailureCause::Injected
                            } else {
                                FailureCause::Unresponsive
                            };
                            gen_failed.push((mdo_netsim::Pe(i as u32), cause));
                        }
                    }
                }
            }
            // Drain mesh events; the first wait doubles as the 2 ms tick.
            let mut first = true;
            while let Some(ev) = mesh.next_event(if first { Duration::from_millis(2) } else { Duration::ZERO }) {
                first = false;
                match ev {
                    NetEvent::PeerDown { node } => {
                        if !live.contains(&node) || dead_nodes.contains(&node) {
                            continue;
                        }
                        if is_host {
                            if failure_plan.is_some() {
                                dead_nodes.push(node);
                                for pe in gen_topo.pes_in(ClusterId(node as u16)) {
                                    if !flagged[pe.index()] {
                                        flagged[pe.index()] = true;
                                        gen_failed.push((pe, FailureCause::Unresponsive));
                                    }
                                }
                            } else {
                                abort = Some(NetError::PeerClosed { node });
                            }
                        } else if node == 0 {
                            // The coordinator is gone; nothing to wait for.
                            abort = Some(NetError::PeerClosed { node: 0 });
                        }
                    }
                    NetEvent::Control { from, bytes } => match decode_ctl(&bytes) {
                        Some(Ctl::Report(r)) if is_host => {
                            let n = r.node as usize;
                            if n < host_reports.len() {
                                host_reports[n] = Some(r);
                            }
                        }
                        Some(Ctl::Abort(reason)) => {
                            if is_host {
                                match reason {
                                    AbortReason::NoFailurePlan(pe) => {
                                        unrecoverable =
                                            Some(UnrecoverableError::NoFailurePlan { pe: mdo_netsim::Pe(pe) });
                                    }
                                    AbortReason::Transport { src, dst, seq, attempts } => {
                                        transport_error = Some(TransportError {
                                            src: mdo_netsim::Pe(src),
                                            dst: mdo_netsim::Pe(dst),
                                            seq,
                                            attempts,
                                        });
                                    }
                                    AbortReason::Other(s) => {
                                        abort = Some(NetError::Aborted { by: from, reason: s });
                                    }
                                }
                            } else {
                                abort = Some(NetError::Aborted { by: from, reason: reason.to_string() });
                            }
                        }
                        Some(Ctl::Recover { new_gen, dead_cur, dead_nodes: dn }) if !is_host => {
                            remote_recover = Some((new_gen, dead_cur.into_iter().map(mdo_netsim::Pe).collect(), dn));
                        }
                        Some(Ctl::Done) if !is_host => {
                            stop.store(true, Ordering::Release);
                        }
                        _ => {} // stray/unknown control traffic is ignored
                    },
                }
            }
            if unrecoverable.is_some()
                || transport_error.is_some()
                || abort.is_some()
                || remote_recover.is_some()
                || !gen_failed.is_empty()
            {
                stop.store(true, Ordering::Release);
                break;
            }
        }

        stack.shutdown();
        let mut results: Vec<PeResult> =
            handles.into_iter().map(|(pe, h)| h.join().unwrap_or_else(|_| PeResult::lost(pe))).collect();
        results.sort_by_key(|r| r.pe);

        // Late-casualty sweep, as in the single-process engine.
        if is_host && failure_plan.is_some() && unrecoverable.is_none() {
            for r in &results {
                let i = r.pe.index();
                let died = r.node.is_none() || status[i].load(Ordering::Acquire) != PE_ALIVE;
                if died && !flagged[i] && i != 0 {
                    flagged[i] = true;
                    let cause = if status[i].load(Ordering::Acquire) == PE_CRASHED {
                        FailureCause::Injected
                    } else {
                        FailureCause::Unresponsive
                    };
                    gen_failed.push((r.pe, cause));
                }
            }
        }

        let gen_lb_rounds = results.first().map(|r| r.lb_rounds).unwrap_or(0);
        books.absorb_generation(&stack, &results, &orig, mesh.drops());
        if is_host {
            lb_rounds_total += gen_lb_rounds;
            migrations_total += results.first().map(|r| r.migrations).unwrap_or(0);
            rebalance_total += results.first().map(|r| r.rebalance).unwrap_or(0);
            gctr.add(Ctr::CheckpointsTaken, results.first().map(|r| r.ft_epochs).unwrap_or(0) as u64);
        }

        let exited = exit_announced.load(Ordering::Acquire);
        if exited && books.end_ns == 0 {
            books.end_ns = end_ns.load(Ordering::Acquire);
        }
        books.transport_error = books.transport_error.take().or(transport_error);

        // ---- disposition ---------------------------------------------
        if let Some(err) = abort {
            mesh.shutdown();
            return Err(err);
        }

        if let Some((new_gen, dead_cur, dn)) = remote_recover {
            // --- recovery, as a participant --------------------------
            let mut survivors: Vec<Node> =
                results.into_iter().filter(|r| !dead_cur.contains(&r.pe)).filter_map(|r| r.node).collect();
            let mut pieces = Vec::new();
            for node in survivors.iter_mut() {
                pieces.extend(node.take_ft_pieces());
            }
            mesh.send_control(0, &encode_ctl(&Ctl::Pieces(pieces)))?;
            let snapshot = loop {
                match wait_event(&mesh, deadline) {
                    Some(NetEvent::Control { from, bytes }) => match decode_ctl(&bytes) {
                        Some(Ctl::Restart { snapshot, .. }) => {
                            break Snapshot::decode(&snapshot)
                                .map_err(|e| NetError::Malformed { what: format!("restart snapshot: {e:?}") })?;
                        }
                        Some(Ctl::Abort(reason)) => {
                            mesh.shutdown();
                            return Err(NetError::Aborted { by: from, reason: reason.to_string() });
                        }
                        _ => {}
                    },
                    Some(NetEvent::PeerDown { node: 0 }) => {
                        mesh.shutdown();
                        return Err(NetError::PeerClosed { node: 0 });
                    }
                    Some(NetEvent::PeerDown { .. }) => {}
                    None => {
                        mesh.shutdown();
                        return Err(NetError::Timeout { what: "restart snapshot from node 0".into() });
                    }
                }
            };
            let (new_topo, new_map) = shared.topo.without_pes(&dead_cur);
            orig = new_map.iter().map(|&cur| orig[cur.index()]).collect();
            shared = Arc::new(NodeShared {
                topo: new_topo,
                arrays: shared.arrays.clone(),
                cfg: restart_cfg.clone(),
                restore: Some(Arc::new(snapshot)),
            });
            nodes = build_local(&shared, me, &mut host_parts);
            live.retain(|n| !dn.contains(n));
            mesh_gen = new_gen;
            gctr.bump(Ctr::Recoveries);
            gctr.bump(Ctr::Generations);
            mesh.shutdown();
            continue 'generations;
        }

        let run_over = unrecoverable.is_some()
            || books.transport_error.is_some()
            || exited
            || deadline_hit
            || gen_failed.is_empty();
        if is_host && !run_over {
            // --- recovery, as the coordinator ------------------------
            let at = Time::from_nanos(elapsed_ns(t0));
            for &(cur, cause) in &gen_failed {
                failures.push(PeFailed { pe: orig[cur.index()], at, cause });
            }
            let dead_cur: Vec<mdo_netsim::Pe> = gen_failed.iter().map(|&(c, _)| c).collect();
            let new_gen = mesh_gen + 1;
            let new_live: Vec<u32> = live.iter().copied().filter(|n| !dead_nodes.contains(n)).collect();
            let recover = Ctl::Recover {
                new_gen,
                dead_cur: dead_cur.iter().map(|p| p.0).collect(),
                dead_nodes: dead_nodes.clone(),
            };
            for &n in new_live.iter().filter(|&&n| n != me) {
                mesh.send_control(n, &encode_ctl(&recover))?;
            }
            let mut survivors: Vec<Node> =
                results.into_iter().filter(|r| !dead_cur.contains(&r.pe)).filter_map(|r| r.node).collect();
            let mut pieces = Vec::new();
            for node in survivors.iter_mut() {
                pieces.extend(node.take_ft_pieces());
            }
            let mut awaiting: BTreeSet<u32> = new_live.iter().copied().filter(|&n| n != me).collect();
            while !awaiting.is_empty() {
                match wait_event(&mesh, deadline) {
                    Some(NetEvent::Control { from, bytes }) => match decode_ctl(&bytes) {
                        Some(Ctl::Pieces(p)) => {
                            pieces.extend(p);
                            awaiting.remove(&from);
                        }
                        Some(Ctl::Report(r)) => {
                            let n = r.node as usize;
                            if n < host_reports.len() {
                                host_reports[n] = Some(r);
                            }
                        }
                        _ => {}
                    },
                    Some(NetEvent::PeerDown { node }) if awaiting.contains(&node) => {
                        broadcast_abort(
                            &mesh,
                            &live,
                            me,
                            &AbortReason::Other(format!("node {node} died mid-recovery")),
                        );
                        mesh.shutdown();
                        return Err(NetError::PeerClosed { node });
                    }
                    Some(NetEvent::PeerDown { .. }) => {}
                    None => {
                        broadcast_abort(
                            &mesh,
                            &live,
                            me,
                            &AbortReason::Other("recovery piece gather timed out".into()),
                        );
                        mesh.shutdown();
                        return Err(NetError::Timeout { what: "buddy pieces from survivors".into() });
                    }
                }
            }
            let expected: Vec<(ArrayId, usize)> = shared.arrays.iter().map(|a| (a.id, a.n_elems)).collect();
            let Some((snapshot, snap_round)) = assemble_buddy_snapshot(&expected, &pieces) else {
                unrecoverable =
                    Some(UnrecoverableError::NoCompleteSnapshot { failed: failures.iter().map(|f| f.pe).collect() });
                broadcast_abort(&mesh, &live, me, &AbortReason::Other("no complete buddy snapshot".into()));
                mesh.shutdown();
                break 'generations;
            };
            gctr.add(Ctr::StepsReplayed, gen_lb_rounds.saturating_sub(snap_round) as u64);
            let snap_bytes = snapshot.encode();
            let restart = Ctl::Restart { snap_round, snapshot: snap_bytes };
            for &n in new_live.iter().filter(|&&n| n != me) {
                mesh.send_control(n, &encode_ctl(&restart))?;
            }
            let hp = survivors.iter_mut().find(|n| n.pe() == mdo_netsim::Pe(0)).expect("PE 0 survives").take_host();
            host_parts = Some(hp);
            pending.retain(|s| !failures.iter().any(|f| f.pe == s.pe));
            let (new_topo, new_map) = shared.topo.without_pes(&dead_cur);
            orig = new_map.iter().map(|&cur| orig[cur.index()]).collect();
            shared = Arc::new(NodeShared {
                topo: new_topo,
                arrays: shared.arrays.clone(),
                cfg: restart_cfg.clone(),
                restore: Some(Arc::new(snapshot)),
            });
            nodes = build_local(&shared, me, &mut host_parts);
            live = new_live;
            mesh_gen = new_gen;
            gctr.bump(Ctr::Recoveries);
            gctr.bump(Ctr::Generations);
            mesh.shutdown();
            continue 'generations;
        }

        // ---- end of run ----------------------------------------------
        if !is_host {
            let clean = exited && !deadline_hit && books.transport_error.is_none();
            if clean {
                mesh.send_control(0, &encode_ctl(&Ctl::Report(books.to_report(me))))?;
                loop {
                    match wait_event(&mesh, deadline) {
                        Some(NetEvent::Control { from, bytes }) => match decode_ctl(&bytes) {
                            Some(Ctl::Done) => break,
                            Some(Ctl::Abort(reason)) => {
                                mesh.shutdown();
                                return Err(NetError::Aborted { by: from, reason: reason.to_string() });
                            }
                            _ => {}
                        },
                        // Events are delivered in stream order, so a Done
                        // sent before the coordinator closed has already
                        // been drained; a bare PeerDown(0) means no Done
                        // is coming.
                        Some(NetEvent::PeerDown { node: 0 }) => {
                            mesh.shutdown();
                            return Err(NetError::PeerClosed { node: 0 });
                        }
                        Some(NetEvent::PeerDown { .. }) => {}
                        None => {
                            mesh.shutdown();
                            return Err(NetError::Timeout { what: "Done from node 0".into() });
                        }
                    }
                }
                mesh.shutdown();
                break 'generations;
            }
            mesh.shutdown();
            if deadline_hit {
                return Err(NetError::Timeout { what: format!("run deadline at node {me}") });
            }
            // Local transport error or unrecoverable already messaged the
            // coordinator from the watchdog; stand down with the error.
            return Err(NetError::Aborted { by: me, reason: "run ended abnormally".into() });
        }

        // Node 0: gather outstanding reports on a clean end, then Done.
        let clean = exited && unrecoverable.is_none() && books.transport_error.is_none() && !deadline_hit;
        if clean {
            let mut awaiting: BTreeSet<u32> =
                live.iter().copied().filter(|&n| n != me && host_reports[n as usize].is_none()).collect();
            // Reports are tiny; 15 s is generous and still bounded.
            let gather_deadline = Instant::now() + Duration::from_secs(15).min(tcfg.max_wall);
            while !awaiting.is_empty() {
                match wait_event(&mesh, gather_deadline.min(deadline)) {
                    Some(NetEvent::Control { bytes, .. }) => {
                        if let Some(Ctl::Report(r)) = decode_ctl(&bytes) {
                            let n = r.node as usize;
                            awaiting.remove(&r.node);
                            if n < host_reports.len() {
                                host_reports[n] = Some(r);
                            }
                        }
                    }
                    Some(NetEvent::PeerDown { node }) if awaiting.contains(&node) => {
                        broadcast_abort(
                            &mesh,
                            &live,
                            me,
                            &AbortReason::Other(format!("node {node} died before reporting")),
                        );
                        mesh.shutdown();
                        return Err(NetError::PeerClosed { node });
                    }
                    Some(NetEvent::PeerDown { .. }) => {}
                    None => {
                        broadcast_abort(&mesh, &live, me, &AbortReason::Other("final report gather timed out".into()));
                        mesh.shutdown();
                        return Err(NetError::Timeout { what: format!("final reports from nodes {awaiting:?}") });
                    }
                }
            }
            for &n in live.iter().filter(|&&n| n != me) {
                let _ = mesh.send_control(n, &encode_ctl(&Ctl::Done));
            }
        } else {
            // Errorful end: tell everyone to stand down, keep what we have.
            let reason = if deadline_hit {
                AbortReason::Other("run deadline".into())
            } else if let Some(e) = &books.transport_error {
                AbortReason::Transport { src: e.src.0, dst: e.dst.0, seq: e.seq, attempts: e.attempts }
            } else {
                AbortReason::Other(unrecoverable.as_ref().map(|u| u.to_string()).unwrap_or_else(|| "aborted".into()))
            };
            broadcast_abort(&mesh, &live, me, &reason);
        }
        mesh.shutdown();
        break 'generations;
    }

    // ---- assemble this process's report ------------------------------
    if is_host {
        for r in host_reports.iter().flatten() {
            books.merge_report(r);
        }
    }
    let end_time = if books.end_ns > 0 { Time::from_nanos(books.end_ns) } else { Time::from_nanos(elapsed_ns(t0)) };
    faults_total.dropped = books.sums.dropped;
    faults_total.corrupt_rejected = books.sums.corrupt_rejected + decode_rejected.load(Ordering::Relaxed);
    faults_total.dup_dropped = books.sums.dup_dropped;
    faults_total.reordered = books.sums.reordered;
    faults_total.retransmits = books.sums.retransmits;

    gctr.add(Ctr::ObjectsMigrated, migrations_total);
    gctr.add(Ctr::RebalanceTriggers, rebalance_total as u64);
    gctr.add(Ctr::Drops, faults_total.dropped);
    gctr.add(Ctr::Retransmits, faults_total.retransmits);
    gctr.add(Ctr::DupDropped, faults_total.dup_dropped);
    gctr.add(Ctr::CorruptRejected, faults_total.corrupt_rejected);
    gctr.add(Ctr::Reordered, faults_total.reordered);
    gctr.add(Ctr::FailuresDetected, failures.len() as u64);
    gctr.add(Ctr::FramesSent, books.sums.frames_sent);
    gctr.add(Ctr::EnvelopesCoalesced, books.sums.coalesced);
    gctr.add(Ctr::FrameBytesSaved, books.sums.bytes_saved);
    gctr.add(Ctr::CheckpointBytes, books.sums.ckpt_bytes);

    Ok(RunReport {
        end_time,
        pe_busy: books.busy_ns.iter().map(|&ns| Dur::from_nanos(ns)).collect(),
        pe_messages: books.msgs.clone(),
        pe_max_queue_depth: books.qdepth.iter().map(|&d| d as usize).collect(),
        network: NetworkStats {
            intra_messages: books.sums.intra_msgs,
            intra_bytes: books.sums.intra_bytes,
            cross_messages: books.sums.cross_msgs,
            cross_bytes: books.sums.cross_bytes,
        },
        obs: None,
        lb_rounds: lb_rounds_total,
        migrations: migrations_total,
        faults: faults_total,
        transport_error: books.transport_error,
        failures_detected: gctr.get_u32(Ctr::FailuresDetected),
        recoveries: gctr.get_u32(Ctr::Recoveries),
        pes_joined: 0,
        generations: gctr.get_u32(Ctr::Generations),
        rebalance_triggers: gctr.get_u32(Ctr::RebalanceTriggers),
        objects_migrated: gctr.get(Ctr::ObjectsMigrated),
        steps_replayed: gctr.get_u32(Ctr::StepsReplayed),
        checkpoints_taken: gctr.get_u32(Ctr::CheckpointsTaken),
        checkpoint_bytes: gctr.get(Ctr::CheckpointBytes),
        failures,
        unrecoverable,
        credit_stalls: books.sums.credit_stalls,
        credit_wait: Dur::from_nanos(books.sums.credit_wait_ns),
        queue_full: books.sums.queue_full,
        sheds: books.sums.sheds,
        shed_bytes: books.sums.shed_bytes,
        peak_mailbox_bytes: books.sums.peak_mailbox_bytes,
    })
}

fn broadcast_abort(mesh: &NetMesh, live: &[u32], me: u32, reason: &AbortReason) {
    let msg = encode_ctl(&Ctl::Abort(reason.clone()));
    for &n in live.iter().filter(|&&n| n != me) {
        let _ = mesh.send_control(n, &msg);
    }
}

//! The traced run: per-layer metrics.
//!
//! The run first executes the workload's job once (tracing off inside the
//! runtime) for the engine's own counts, then replays the workload's
//! traffic shape — the same envelope sizes, per-step counts and PE pairs —
//! through each layer's public entry points, recording a span around
//! every call:
//!
//! - `Aggregator::send_with` (encoding inside it with
//!   `Envelope::encode_into`) and `recv_timeout`, then `decode_shared`;
//! - `ReliableTransport::send`;
//! - `Transport::send`, whose cross-cluster chain holds the delay device
//!   and, for the TCP workloads, a `WireBinding` over a loopback `NetMesh`;
//! - `Mailbox::post` and `take_many`;
//! - `SchedQueue::push` and `pop`, at the queue depth the job reported;
//! - `EventQueue::schedule` and `pop`;
//! - `SeqStencil::step`, and a raw `NetMesh` one-way for 32 B.
//!
//! The replay runs twice, spans off then on; the ratio of the two wall
//! times is the tracing overhead.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mdo_apps::stencil::seq::SeqStencil;
use mdo_core::envelope::MsgBody;
use mdo_core::prelude::*;
use mdo_core::queue::SchedQueue;
use mdo_core::Envelope;
use mdo_net::record::{DATA_BODY_MIN, RECORD_HEADER_LEN};
use mdo_net::{localhost_rendezvous, NetConfig, NetMesh, NetSession};
use mdo_netsim::{EventQueue, LatencyMatrix, SplitMix64};
use mdo_vmi::{Aggregator, Mailbox, Packet, ReliableTransport, Transport, TransportConfig, Wire, WireBinding};

use crate::jobs::{self, Workload};
use crate::spans::{self, Recorder, Span};
use crate::{alloc, layers, stats, Metric};

/// What the traced run measured and checked.
pub struct Replayed {
    /// Operations attempted (job steps or rounds plus replayed envelopes).
    pub attempted: u64,
    /// Operations of failed runs.
    pub failed: u64,
    /// Why checks failed.
    pub errors: Vec<String>,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Human-readable lines.
    pub report: Vec<String>,
    /// The recorded spans, as CSV.
    pub spans_csv: String,
    /// Steps or rounds of the job run for the engine's counts.
    pub job_ops: u32,
    /// Steps (rounds) of each replay pass.
    pub replay_steps: u32,
    /// Replay passes run, half of them traced.
    pub replay_passes: usize,
}

/// Envelopes in each allocation-count window.
const ALLOC_WINDOW: usize = 512;

/// Raw mesh one-way samples (enough for a p99).
const ONEWAY_SAMPLES: u32 = 2_000;

/// Give up on a replay step that makes no progress for this long.
const STALL: Duration = Duration::from_secs(20);

/// One message of a workload's traffic shape.
struct Msg {
    src: Pe,
    dst: Pe,
    payload: Bytes,
}

/// A workload's traffic shape.
struct Shape {
    w: Workload,
    seed: u64,
    topo: Topology,
    latency: LatencyMatrix,
    /// Replayed steps (rounds for the ping-pong).
    steps: u32,
    /// Mesh side and steps of the kernel replay.
    kernel: (usize, u32),
}

impl Shape {
    fn new(w: Workload, seed: u64) -> Shape {
        let topo = Topology::two_cluster(w.pes());
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, w.wan_latency());
        let (steps, kernel) = match w {
            Workload::StencilGrid => (200, (2048, 10)),
            Workload::FinegrainTcp => (3, (256, 200)),
            // One 8×8 block, the fine-grain grain size: the ping-pong's
            // chares compute nothing, so this figure moves none of its
            // metrics.
            Workload::PingpongTcp => (2_000, (8, 20_000)),
            Workload::SimSweep => (3, (2048, 10)),
        };
        Shape { w, seed, topo, latency, steps, kernel }
    }

    /// The messages of `step`, payload bytes drawn from the seed.
    fn step(&self, step: u32) -> Vec<Msg> {
        let mut rng = SplitMix64::new(self.seed ^ u64::from(step).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let Some(cfg) = self.w.stencil(1) else {
            let src = Pe(step % 2);
            let payload = Bytes::from(jobs::ping_payload(self.seed, step / 2));
            return vec![Msg { src, dst: Pe(1 - step % 2), payload }];
        };
        let (k, b) = (cfg.k(), cfg.block());
        let place = cfg.mapping.place_all(cfg.objects, &self.topo);
        let mut out = Vec::with_capacity(4 * cfg.objects);
        for i in 0..cfg.objects {
            let (bi, bj) = ((i / k) as isize, (i % k) as isize);
            // Ghost slots as the receiver names them: up, down, left, right.
            for (slot, (ni, nj)) in [(1u8, (bi - 1, bj)), (0, (bi + 1, bj)), (3, (bi, bj - 1)), (2, (bi, bj + 1))] {
                if ni < 0 || nj < 0 || ni >= k as isize || nj >= k as isize {
                    continue;
                }
                let edge: Vec<f64> = (0..b).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).collect();
                let mut wr = WireWriter::new();
                wr.u8(slot).u32(step);
                wr.f64_slice(&edge);
                let dst = place[ni as usize * k + nj as usize];
                out.push(Msg { src: place[i], dst, payload: Bytes::from(wr.finish()) });
            }
        }
        out
    }

    /// The first `n` inter-PE messages of the shape.
    fn sample(&self, n: usize) -> Vec<Msg> {
        let mut out = Vec::new();
        let mut step = 0;
        while out.len() < n {
            out.extend(self.step(step).into_iter().filter(|m| m.src != m.dst));
            step += 1;
        }
        out.truncate(n);
        out
    }

    fn injected_ns(&self, m: &Msg) -> u64 {
        self.latency.base_latency(&self.topo, m.src, m.dst).as_nanos()
    }
}

fn envelope(m: &Msg, id: u64) -> Envelope {
    Envelope {
        src: m.src,
        dst: m.dst,
        priority: 0,
        sent_at_ns: 0,
        body: MsgBody::App {
            target: ObjKey { array: ArrayId(1), elem: ElemId(id as u32) },
            entry: EntryId(2),
            payload: m.payload.clone(),
        },
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One node's message stack: aggregator over reliable delivery over the
/// raw transport (and its mesh, in TCP mode).
struct Node {
    agg: Arc<Aggregator>,
    raw: Arc<Transport>,
    mesh: Option<Arc<NetMesh>>,
}

/// The message stacks of a job: one in-process node, or a loopback TCP
/// node pair with one PE each.
struct Stack {
    nodes: Vec<Node>,
}

fn layered(raw: Arc<Transport>, agg: Option<AggConfig>, mesh: Option<Arc<NetMesh>>) -> Node {
    let rt = ReliableTransport::passthrough(Arc::clone(&raw));
    let agg = match agg {
        Some(cfg) => Aggregator::with_policy(rt, cfg),
        None => Aggregator::passthrough(rt),
    };
    Node { agg, raw, mesh }
}

/// A handshaken loopback mesh pair over `topo` (two clusters = two nodes).
fn mesh_pair(topo: &Topology) -> Result<[Arc<NetMesh>; 2], String> {
    let (listeners, addrs) = localhost_rendezvous(2).map_err(|e| format!("rendezvous: {e:?}"))?;
    let sessions = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| NetSession::with_listener(NetConfig::new(i as u32, addrs.clone()), l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("session: {e:?}"))?;
    let live = [0u32, 1];
    let (m0, m1) = thread::scope(|s| {
        let dial = s.spawn(|| sessions[1].establish(0, topo, &live));
        let m0 = sessions[0].establish(0, topo, &live);
        (m0, dial.join().expect("mesh dial thread"))
    });
    let err = |e| format!("establish: {e:?}");
    Ok([Arc::new(m0.map_err(err)?), Arc::new(m1.map_err(err)?)])
}

impl Stack {
    /// The stack a workload's job uses: in-process, or a TCP node pair.
    fn for_shape(shape: &Shape) -> Result<Stack, String> {
        if shape.w.tcp() {
            Stack::tcp_pair(&shape.topo, &shape.latency, shape.w.agg())
        } else {
            Ok(Stack::in_process(&shape.topo, &shape.latency, shape.w.agg()))
        }
    }

    fn in_process(topo: &Topology, latency: &LatencyMatrix, agg: Option<AggConfig>) -> Stack {
        let raw = Transport::new(TransportConfig::new(topo.clone(), latency.clone()));
        Stack { nodes: vec![layered(raw, agg, None)] }
    }

    fn tcp_pair(topo: &Topology, latency: &LatencyMatrix, agg: Option<AggConfig>) -> Result<Stack, String> {
        let meshes = mesh_pair(topo)?;
        let n = topo.num_pes();
        let nodes = meshes
            .into_iter()
            .enumerate()
            .map(|(i, mesh)| {
                let mut tc = TransportConfig::new(topo.clone(), latency.clone());
                tc.wire = Some(WireBinding::new(Arc::clone(&mesh) as Arc<dyn Wire>, &[Pe(i as u32)], n));
                let raw = Transport::new(tc);
                let landing = Arc::clone(&raw);
                mesh.start(move |pkt| {
                    if pkt.dst.index() < n {
                        landing.mailbox(pkt.dst).post(pkt);
                    }
                });
                layered(raw, agg, Some(mesh))
            })
            .collect();
        Ok(Stack { nodes })
    }

    fn node(&self, pe: Pe) -> &Node {
        &self.nodes[if self.nodes.len() == 1 { 0 } else { pe.index() }]
    }

    fn shutdown(&self) {
        for n in &self.nodes {
            n.agg.shutdown();
            n.agg.reliable().shutdown();
            n.raw.shutdown();
            if let Some(mesh) = &n.mesh {
                mesh.shutdown();
            }
        }
    }
}

/// Which entry point a replayed envelope enters the stack through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    Aggregate,
    Reliable,
    Delay,
}

/// An envelope the receiver must see exactly once.
struct Expected {
    id: u64,
    dst: Pe,
    payload: Bytes,
    injected_ns: u64,
    entry: Entry,
}

/// Receive every expected envelope of each batch, checking it arrives
/// exactly once, at the right PE, intact; report each batch's result.
fn receive(
    stack: &Stack,
    work: mpsc::Receiver<Vec<Expected>>,
    done: mpsc::Sender<Result<(), String>>,
    rec: &mut Recorder,
    epoch: Instant,
    late_us: &mut Vec<f64>,
) {
    while let Ok(batch) = work.recv() {
        let mut pes: Vec<Pe> = batch.iter().map(|e| e.dst).collect();
        pes.sort_unstable();
        pes.dedup();
        let mut want: HashMap<u64, Expected> = batch.into_iter().map(|e| (e.id, e)).collect();
        let mut result = Ok(());
        let mut last = Instant::now();
        'batch: while !want.is_empty() {
            let mut progressed = false;
            for &pe in &pes {
                let recv = rec.begin("vmi.aggregate", "recv_timeout", 0);
                let Some(pkt) = stack.node(pe).agg.recv_timeout(pe, Duration::ZERO) else {
                    rec.discard(recv);
                    continue;
                };
                let arrived = now_ns(epoch);
                progressed = true;
                let dec = rec.begin("core.envelope", "decode_shared", 0);
                let env = Envelope::decode_shared(&pkt.payload);
                let (id, payload) = match &env {
                    Ok(Envelope { body: MsgBody::App { target, payload, .. }, .. }) => {
                        (u64::from(target.elem.0), Some(payload))
                    }
                    _ => (0, None),
                };
                rec.end_as(dec, id);
                rec.end_as(recv, id);
                let Ok(env) = &env else {
                    result = Err(format!("undecodable envelope at {pe:?}"));
                    break 'batch;
                };
                match want.remove(&id) {
                    Some(e) if e.dst == pe && payload == Some(&e.payload) => {
                        if e.entry == Entry::Delay {
                            let late = arrived as f64 - env.sent_at_ns as f64 - e.injected_ns as f64;
                            late_us.push(late / 1e3);
                        }
                    }
                    Some(_) => {
                        result = Err(format!("envelope {id} arrived altered or at the wrong PE"));
                        break 'batch;
                    }
                    None => {
                        result = Err(format!("envelope {id} arrived twice or was never sent"));
                        break 'batch;
                    }
                }
            }
            if progressed {
                last = Instant::now();
            } else if last.elapsed() > STALL {
                result = Err(format!("{} envelopes never arrived", want.len()));
                break;
            } else {
                thread::yield_now();
            }
        }
        if done.send(result).is_err() {
            return;
        }
    }
}

/// Everything one replay pass produced.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    spans: Vec<Span>,
    late_us: Vec<f64>,
    oneway_us: Vec<f64>,
    envelopes: u64,
    agg_frames: u64,
    agg_coalesced: u64,
    agg_deadline: u64,
    retransmits: u64,
    packets: u64,
    wan_bytes: u64,
    wan_envelopes: u64,
    kernel_cells: u64,
}

/// Push every inter-PE message of the shape through the message stack one
/// step at a time, once through each entry point, while a receiver thread
/// takes and checks every envelope.
fn drive_stack(
    shape: &Shape,
    stack: &Stack,
    rec: &mut Recorder,
    epoch: Instant,
    pass: &mut Pass,
) -> Result<(), String> {
    let (work_tx, work_rx) = mpsc::channel::<Vec<Expected>>();
    let (done_tx, done_rx) = mpsc::channel();
    let mut rx_rec = Recorder::new(epoch, rec.enabled());
    let mut late_us = Vec::new();
    let mut next_id = 0u64;
    let result = thread::scope(|s| {
        let receiver = s.spawn(|| receive(stack, work_rx, done_tx, &mut rx_rec, epoch, &mut late_us));
        let mut result = Ok(());
        'entries: for entry in [Entry::Aggregate, Entry::Reliable, Entry::Delay] {
            for step in 0..shape.steps {
                let msgs: Vec<Msg> = shape.step(step).into_iter().filter(|m| m.src != m.dst).collect();
                let first = next_id;
                next_id += msgs.len() as u64;
                let expected = msgs
                    .iter()
                    .zip(first..)
                    .map(|(m, id)| Expected {
                        id,
                        dst: m.dst,
                        payload: m.payload.clone(),
                        injected_ns: shape.injected_ns(m),
                        entry,
                    })
                    .collect();
                work_tx.send(expected).expect("receiver alive");
                for (m, id) in msgs.iter().zip(first..) {
                    if shape.topo.crosses_wan(m.src, m.dst) {
                        pass.wan_envelopes += 1;
                    }
                    send(stack.node(m.src), m, id, entry, rec, epoch);
                }
                if let Err(e) = done_rx.recv().expect("receiver reports every batch") {
                    result = Err(e);
                    break 'entries;
                }
            }
        }
        drop(work_tx);
        receiver.join().expect("receiver thread");
        result
    });
    pass.envelopes += next_id;
    pass.late_us.extend(late_us);
    let base = pass.spans.len();
    pass.spans.extend(offset(rx_rec.into_spans(), base));
    result
}

/// Send one envelope into the stack through `entry`.
fn send(node: &Node, m: &Msg, id: u64, entry: Entry, rec: &mut Recorder, epoch: Instant) {
    let mut env = envelope(m, id);
    env.sent_at_ns = now_ns(epoch);
    if entry == Entry::Aggregate {
        let open = rec.begin("vmi.aggregate", "send_with", id);
        node.agg.send_with(m.src, m.dst, 0, false, |buf| {
            rec.span("core.envelope", "encode_into", id, || env.encode_into(buf))
        });
        rec.end(open);
        return;
    }
    let bytes = rec.span("core.envelope", "encode_into", id, || {
        let mut buf = BytesMut::new();
        env.encode_into(&mut buf);
        buf.freeze()
    });
    let pkt = Packet::new(m.src, m.dst, bytes);
    match entry {
        Entry::Reliable => rec.span("vmi.reliable", "send", id, || node.agg.reliable().send(pkt)),
        _ => rec.span("vmi.delay", "Transport::send", id, || node.raw.send(pkt)),
    }
}

/// Spans of a second recorder, parents shifted past `base` spans.
fn offset(spans: Vec<Span>, base: usize) -> Vec<Span> {
    spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }).collect()
}

/// Post every message of each step into per-PE mailboxes, then drain them
/// with `take_many`, checking order and count.
fn drive_mailboxes(shape: &Shape, rec: &mut Recorder) -> Result<u64, String> {
    let boxes: Vec<Mailbox> = (0..shape.topo.num_pes()).map(|_| Mailbox::new()).collect();
    let mut buf = Vec::with_capacity(4096);
    let mut id = 0u64;
    for step in 0..shape.steps {
        let mut posted: Vec<VecDeque<Bytes>> = vec![VecDeque::new(); boxes.len()];
        for m in shape.step(step) {
            posted[m.dst.index()].push_back(m.payload.clone());
            let pkt = Packet::new(m.src, m.dst, m.payload);
            rec.span("vmi.mailbox", "post", id, || boxes[m.dst.index()].post(pkt));
            id += 1;
        }
        for (mb, mut want) in boxes.iter().zip(posted) {
            while !want.is_empty() {
                let n = rec.span("vmi.mailbox", "take_many", 0, || mb.take_many(&mut buf, 4096));
                if n == 0 {
                    return Err(format!("mailbox lost {} packets", want.len()));
                }
                for pkt in buf.drain(..) {
                    if want.pop_front().as_ref() != Some(&pkt.payload) {
                        return Err("mailbox reordered or altered a packet".into());
                    }
                }
            }
        }
    }
    Ok(id)
}

/// Push and pop every message of each step through a scheduler queue held
/// at `depth`, checking FIFO order.
fn drive_queue(shape: &Shape, depth: usize, rec: &mut Recorder) -> Result<u64, String> {
    let mut q = SchedQueue::new();
    let mut order = VecDeque::new();
    let fill = shape.sample(1);
    for i in 0..depth.saturating_sub(1) {
        let id = u64::MAX - i as u64;
        q.push(envelope(&fill[0], id));
        order.push_back(id as u32);
    }
    let mut id = 0u64;
    for step in 0..shape.steps {
        for m in shape.step(step) {
            let env = envelope(&m, id);
            order.push_back(id as u32);
            rec.span("core.queue", "push", id, || q.push(env));
            let out = rec.span("core.queue", "pop", id, || q.pop());
            let want = order.pop_front();
            match out.map(|e| e.body) {
                Some(MsgBody::App { target, .. }) if Some(target.elem.0) == want => {}
                _ => return Err("scheduler queue broke FIFO order".into()),
            }
            id += 1;
        }
    }
    Ok(id)
}

/// Schedule and pop one delivery event per message of each step, at its
/// virtual arrival time, checking time order.
fn drive_events(shape: &Shape, rec: &mut Recorder) -> Result<u64, String> {
    let mut eq: EventQueue<u64> = EventQueue::new();
    let mut id = 0u64;
    for step in 0..shape.steps {
        let msgs = shape.step(step);
        for m in &msgs {
            let at = eq.now() + shape.latency.base_latency(&shape.topo, m.src, m.dst);
            rec.span("netsim", "schedule", id, || eq.schedule(at, id));
            id += 1;
        }
        let mut last = eq.now();
        for _ in 0..msgs.len() {
            let open = rec.begin("netsim", "pop", 0);
            let popped = eq.pop();
            rec.end_as(open, popped.as_ref().map_or(0, |&(_, ev)| ev));
            let Some((t, ev)) = popped else {
                return Err("event queue lost an event".into());
            };
            if t < last || ev >= id {
                return Err("event queue popped out of time order".into());
            }
            last = t;
        }
    }
    Ok(id)
}

/// Send 32-B packets one at a time over a raw loopback mesh and time each
/// one-way trip.
fn drive_mesh(seed: u64, rec: &mut Recorder, oneway_us: &mut Vec<f64>) -> Result<(), String> {
    let topo = Topology::two_cluster(2);
    let [m0, m1] = mesh_pair(&topo)?;
    let (tx, rx) = mpsc::channel();
    m1.start(move |pkt| {
        let _ = tx.send((Instant::now(), pkt));
    });
    m0.start(|_| {});
    let mut result = Ok(());
    for i in 0..ONEWAY_SAMPLES {
        let payload = Bytes::from(jobs::ping_payload(seed, i));
        let t0 = Instant::now();
        rec.span("net.mesh", "send", u64::from(i), || Wire::send(&*m0, Packet::new(Pe(0), Pe(1), payload.clone())));
        match rx.recv_timeout(STALL) {
            Ok((t1, pkt)) if pkt.payload == payload => oneway_us.push((t1 - t0).as_secs_f64() * 1e6),
            Ok(_) => {
                result = Err("mesh altered a packet".into());
                break;
            }
            Err(_) => {
                result = Err("mesh lost a packet".into());
                break;
            }
        }
    }
    m0.shutdown();
    m1.shutdown();
    result
}

/// One full replay of the shape through every layer.
fn replay(shape: &Shape, depth: usize, epoch: Instant, tracing: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let mut rec = Recorder::new(epoch, tracing);
    let mut pass = Pass::default();

    let stack = Stack::for_shape(shape)?;
    let driven = drive_stack(shape, &stack, &mut rec, epoch, &mut pass);
    for node in &stack.nodes {
        let st = node.agg.stats();
        pass.agg_frames += st.frames_sent;
        pass.agg_coalesced += st.envelopes_coalesced;
        pass.agg_deadline += st.flush_by_deadline;
        pass.retransmits += node.agg.reliable().retransmits();
        let (intra, cross) = (node.raw.intra_traffic(), node.raw.cross_traffic());
        pass.packets += intra.0 + cross.0;
        pass.wan_bytes += cross.1;
        if let Some(mesh) = &node.mesh {
            pass.wan_bytes += mesh.data_sent() * (RECORD_HEADER_LEN + DATA_BODY_MIN) as u64;
        }
    }
    stack.shutdown();
    driven?;

    pass.envelopes += drive_mailboxes(shape, &mut rec)?;
    pass.envelopes += drive_queue(shape, depth, &mut rec)?;
    pass.envelopes += drive_events(shape, &mut rec)?;

    let (mesh, steps) = shape.kernel;
    let mut seq = SeqStencil::new(mesh);
    for i in 0..steps {
        rec.span("apps.stencil", "SeqStencil::step", u64::from(i), || seq.step());
    }
    std::hint::black_box(seq.get(0, 0));
    pass.kernel_cells = u64::from(steps) * (mesh * mesh) as u64;

    drive_mesh(shape.seed, &mut rec, &mut pass.oneway_us)?;
    pass.wall_s = start.elapsed().as_secs_f64();
    let base = pass.spans.len();
    let main = offset(rec.into_spans(), base);
    pass.spans.extend(main);
    Ok(pass)
}

/// Allocations per envelope made by the calling thread, as exact counts:
/// `encode_into` into a fresh buffer plus `decode_shared`; and
/// `Aggregator::send_with` after a warm-up, over a zero-latency
/// in-process stack (so delivery runs inline) with deadline flushes
/// disabled (so the count cannot depend on timing).
fn alloc_counts(shape: &Shape) -> Result<(f64, f64), String> {
    let msgs = shape.sample(2 * ALLOC_WINDOW);
    let envs: Vec<Envelope> = msgs.iter().zip(0..).map(|(m, id)| envelope(m, id)).collect();
    let before = alloc::allocations();
    for env in &envs[..ALLOC_WINDOW] {
        let mut buf = BytesMut::new();
        env.encode_into(&mut buf);
        let bytes = buf.freeze();
        std::hint::black_box(Envelope::decode_shared(&bytes).map_err(|e| format!("decode: {e:?}"))?);
    }
    let envelope_allocs = (alloc::allocations() - before) as f64 / ALLOC_WINDOW as f64;

    let agg = shape.w.agg().map(|c| c.with_max_delay(Dur::from_secs(1)));
    let stack = Stack::in_process(&shape.topo, &LatencyMatrix::uniform(&shape.topo, Dur::ZERO, Dur::ZERO), agg);
    let node = &stack.nodes[0];
    let (warm, window) = envs.split_at(ALLOC_WINDOW);
    for env in warm {
        node.agg.send_with(env.src, env.dst, 0, false, |buf| env.encode_into(buf));
    }
    let before = alloc::allocations();
    for env in window {
        node.agg.send_with(env.src, env.dst, 0, false, |buf| env.encode_into(buf));
    }
    let agg_allocs = (alloc::allocations() - before) as f64 / ALLOC_WINDOW as f64;
    stack.shutdown();
    Ok((envelope_allocs, agg_allocs))
}

/// Total self time of the spans of `layer` that called one of `ops`, and
/// their count.
fn self_total(spans: &[Span], self_ns: &[u64], layer: &str, ops: &[&str]) -> (f64, u64) {
    let (sum, n) = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == layer && ops.contains(&s.op))
        .fold((0u64, 0u64), |(sum, n), (_, &t)| (sum + t, n + 1));
    (sum as f64, n)
}

/// Run the traced replay of workload `w`.
pub fn run(w: Workload, seed: u64, budget: Duration) -> Replayed {
    let start = Instant::now();
    let shape = Shape::new(w, seed);
    let (_, long) = w.trial_ops();
    let mut out = Replayed {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        report: Vec::new(),
        spans_csv: String::new(),
        job_ops: long,
        replay_steps: shape.steps,
        replay_passes: 0,
    };

    let allocs = alloc_counts(&shape).and_then(|a| {
        let again = alloc_counts(&Shape::new(w, seed ^ 0x5eed))?;
        if again == a {
            Ok(a)
        } else {
            Err(format!("allocation counts {a:?} changed to {again:?} on a second seed"))
        }
    });

    let reference = jobs::reference_for(w, &[long]);
    let epoch = Instant::now();
    let mut job_rec = Recorder::new(epoch, true);
    let job = job_rec.span("core.engine", "run", 0, || jobs::run_job(w, long, seed, reference.as_ref()));
    out.attempted += u64::from(job.ops);
    if let Some(e) = &job.error {
        out.errors.push(e.clone());
    }
    let report = &job.report;
    let depth = report.pe_max_queue_depth.iter().copied().max().unwrap_or(1).max(1);

    // Alternate untraced and traced passes until the budget is spent, so
    // warm-up does not count as tracing overhead; the last traced pass
    // supplies the spans.
    let mut walls = [Vec::new(), Vec::new()];
    let mut traced = None;
    while out.errors.is_empty() && (walls[1].len() < 2 || start.elapsed() < budget) {
        for tracing in [false, true] {
            match replay(&shape, depth, epoch, tracing) {
                Ok(pass) => {
                    out.attempted += pass.envelopes;
                    walls[usize::from(tracing)].push(pass.wall_s);
                    traced = Some(pass);
                }
                Err(e) => out.errors.push(e),
            }
        }
    }
    let (traced, allocs) = match (traced, allocs) {
        (Some(t), Ok(a)) if out.errors.is_empty() => (t, a),
        (_, a) => {
            out.errors.extend(a.err());
            out.failed = out.attempted;
            return out;
        }
    };
    let overhead = walls[1].iter().sum::<f64>() / walls[0].iter().sum::<f64>();
    let (pass, (envelope_allocs, agg_allocs)) = (traced, allocs);
    for (what, n) in [("late", pass.late_us.len()), ("one-way", pass.oneway_us.len())] {
        if stats::tail_percentile(n) < Some(99.0) {
            out.errors.push(format!("{n} {what} samples are too few for a p99"));
        }
    }

    let mut spans = job_rec.into_spans();
    let base = spans.len();
    spans.extend(offset(pass.spans, base));
    let self_ns = spans::self_times(&spans);

    let ops = f64::from(job.ops);
    let per = |(sum, n): (f64, u64)| if n == 0 { f64::NAN } else { sum / n as f64 };
    let (encode, decode) = (
        per(self_total(&spans, &self_ns, "core.envelope", &["encode_into"])),
        per(self_total(&spans, &self_ns, "core.envelope", &["decode_shared"])),
    );
    let take = self_total(&spans, &self_ns, "vmi.mailbox", &["take_many"]).0;
    let posts = self_total(&spans, &self_ns, "vmi.mailbox", &["post"]);
    let queue = self_total(&spans, &self_ns, "core.queue", &["push", "pop"]);
    let events = self_total(&spans, &self_ns, "netsim", &["schedule", "pop"]);
    let kernel = self_total(&spans, &self_ns, "apps.stencil", &["SeqStencil::step"]).0;
    let pct = |xs: &[f64], p| stats::percentile(xs, p).unwrap_or(f64::NAN);
    let frames = pass.agg_frames;
    let values: Vec<f64> = vec![
        kernel / pass.kernel_cells as f64,
        report.mean_utilization(),
        depth as f64,
        report.pe_messages.iter().sum::<u64>() as f64 / ops,
        encode,
        decode,
        envelope_allocs,
        queue.0 / (queue.1 / 2) as f64,
        per(self_total(&spans, &self_ns, "vmi.aggregate", &["send_with"])),
        if frames == 0 { 1.0 } else { pass.agg_coalesced as f64 / frames as f64 },
        if frames == 0 { 0.0 } else { pass.agg_deadline as f64 / frames as f64 },
        agg_allocs,
        per(self_total(&spans, &self_ns, "vmi.reliable", &["send"])),
        pass.retransmits as f64 / pass.packets.max(1) as f64,
        per(posts),
        take / posts.1 as f64,
        pct(&pass.late_us, 50.0),
        pct(&pass.late_us, 99.0),
        pct(&pass.oneway_us, 50.0),
        pct(&pass.oneway_us, 99.0),
        pass.wan_bytes as f64 / pass.wan_envelopes.max(1) as f64,
        events.0 / (events.1 / 2) as f64,
        report.network.total_messages() as f64 / ops,
        report.network.cross_messages as f64 / ops,
    ];
    for (m, v) in layers::METRICS.iter().zip(values) {
        out.report.push(format!("{} = {v:.4} {} ({} is better; moves {})", m.name, m.unit, m.better, m.moves));
        out.metrics.push(Metric { name: m.name.to_string(), value: v, unit: m.unit });
    }
    for layer in layers::LAYERS {
        let mut own: Vec<f64> =
            spans.iter().zip(&self_ns).filter(|(s, _)| s.name == layer).map(|(_, &t)| t as f64).collect();
        own.sort_by(f64::total_cmp);
        let tail = stats::tail_percentile(own.len());
        let tail_value = match tail {
            Some(p) => pct(&own, p),
            None => own.last().copied().unwrap_or(f64::NAN),
        };
        out.report.push(format!(
            "{layer}: {} calls, self ns p50 {:.0}, {} {:.0}",
            own.len(),
            pct(&own, 50.0),
            tail.map_or("max".to_string(), |p| format!("p{p}")),
            tail_value
        ));
        out.metrics.push(Metric { name: format!("{layer}.calls"), value: own.len() as f64, unit: "count" });
        out.metrics.push(Metric { name: format!("{layer}.self_ns_p50"), value: pct(&own, 50.0), unit: "ns" });
        out.metrics.push(Metric { name: format!("{layer}.self_ns_tail"), value: tail_value, unit: "ns" });
    }
    out.metrics.push(Metric { name: layers::TRACE_OVERHEAD.to_string(), value: overhead, unit: "ratio" });
    out.report.push(format!(
        "replay: {} envelopes per pass, {} late samples, {} one-way samples; {} pass pairs, {:.3} s traced vs {:.3} s \
         untraced",
        pass.envelopes,
        pass.late_us.len(),
        pass.oneway_us.len(),
        walls[1].len(),
        walls[1].iter().sum::<f64>(),
        walls[0].iter().sum::<f64>()
    ));
    out.replay_passes = 2 * walls[1].len();
    out.spans_csv = spans::to_csv(&spans);
    if !out.errors.is_empty() {
        out.failed = out.attempted;
    }
    out
}

//! The real-time threaded engine.
//!
//! One OS thread per PE; each thread blocks on its VMI mailbox, decodes
//! envelopes from real bytes, and runs the same [`Node`] logic as the
//! simulation engine.  Cross-cluster packets pass through a real
//! [`mdo_vmi::DelayDevice`] that holds them for the configured wall-clock
//! latency — this engine is our equivalent of the paper's *real* TeraGrid
//! validation runs (the "Real Latency" columns of Tables 1 and 2): same
//! application, same runtime, real threads, real injected delays, real
//! elapsed time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdo_netsim::network::NetworkStats;
use mdo_netsim::{
    ClusterId, CrashTrigger, Dur, FailureCause, FaultModelStats, FaultPlan, JoinSpec, JoinTrigger, LatencyMatrix, Pe,
    PeFailed, Time, Topology, TransportError, UnrecoverableError,
};
use mdo_vmi::{Aggregator, CrcDevice, FaultDevice, ReliableTransport, Transport, TransportConfig};

use mdo_obs::{CounterSet, Ctr, Event as ObsEvent, ObjTag, ObsConfig, ObsReport, PeObs, PeRecorder};

use crate::chare::{Ctx, CtxSink};
use crate::checkpoint::assemble_buddy_snapshot;
use crate::envelope::{Envelope, MsgBody, SYSTEM_PRIORITY};
use crate::ids::ArrayId;
use crate::node::{split_program, AppAdmit, AppRun, HandleOutcome, HostParts, Node, NodeHooks, NodeShared};
use crate::program::{Program, RunConfig, RunReport};

/// Engine-specific configuration.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Latency injected by the delay device (intra typically ~0, cross =
    /// the artificial WAN latency).
    pub latency: LatencyMatrix,
    /// Wall-clock safety limit: the run is aborted (mailboxes closed) if it
    /// has not exited by then.
    pub max_wall: Duration,
    /// Emulate charged compute by sleeping for it: each handler's
    /// [`crate::chare::Ctx::charge`]d cost becomes a real `thread::sleep`.
    /// Sleeping threads do not contend for CPU, so `P` PE threads behave
    /// like `P` dedicated processors even on a host with fewer cores —
    /// the substitution that makes real-wall-clock validation runs
    /// faithful on small machines (see DESIGN.md).
    pub compute_sleep: bool,
}

impl ThreadedConfig {
    /// Config with the given latency matrix and a 120 s safety limit.
    pub fn new(latency: LatencyMatrix) -> Self {
        ThreadedConfig { latency, max_wall: Duration::from_secs(120), compute_sleep: false }
    }

    /// Enable sleep-emulated compute.
    pub fn with_compute_sleep(mut self) -> Self {
        self.compute_sleep = true;
        self
    }
}

/// The threaded engine.
pub struct ThreadedEngine {
    topo: Topology,
    tcfg: ThreadedConfig,
    cfg: RunConfig,
}

struct ThreadHooks {
    t0: Instant,
    pe: Pe,
    agg: Arc<Aggregator>,
    /// Per-PE recorder (original numbering); lives here so departures can
    /// be recorded where they happen — inside handler sends.
    rec: PeRecorder,
    orig: Arc<Vec<Pe>>,
    topo: Topology,
}

impl NodeHooks for ThreadHooks {
    fn now(&self) -> Time {
        Time::from_nanos(u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
    fn emit(&mut self, env: Envelope, _after: Dur) {
        debug_assert_eq!(env.src, self.pe);
        if self.rec.is_on() {
            self.rec.send(
                self.now(),
                self.orig[env.dst.index()].0,
                env.wire_size(),
                self.topo.crosses_wan(env.src, env.dst),
                env.priority == SYSTEM_PRIORITY,
            );
        }
        // Encode straight into the aggregator's buffer — the warm frame
        // buffer on the coalesced cross-WAN path, a standalone payload
        // otherwise.  Only point-to-point app data may wait in a buffer;
        // system and collective control traffic flushes the pair
        // immediately so QD, barriers and exit never wait out a deadline.
        let urgent = !env.aggregatable();
        self.agg.send_with(env.src, env.dst, env.priority, urgent, |buf| env.encode_into(buf));
    }
}

/// What each PE thread reports back when it finishes.
///
/// Survivors also hand their [`Node`] back to the engine: recovery needs
/// the buddy pieces stored inside it and — on PE 0 — the host closures.
/// A PE that died (injected crash or panic) returns `node: None`; its
/// in-memory state is gone, exactly like a real process crash.
pub(super) struct PeResult {
    pub(super) pe: Pe,
    pub(super) busy: Dur,
    pub(super) messages: u64,
    pub(super) lb_rounds: u32,
    pub(super) migrations: u64,
    pub(super) rebalance: u32,
    pub(super) obs: PeObs,
    pub(super) ft_epochs: u32,
    pub(super) ft_bytes: u64,
    /// Envelopes this thread executed for *other* PEs' nodes (work
    /// stealing; 0 when stealing is off).
    pub(super) steals: u64,
    pub(super) node: Option<Node>,
}

impl PeResult {
    /// Placeholder for a thread that could not be joined.
    pub(super) fn lost(pe: Pe) -> Self {
        PeResult {
            pe,
            busy: Dur::ZERO,
            messages: 0,
            lb_rounds: 0,
            migrations: 0,
            rebalance: 0,
            obs: PeObs::empty(pe.0),
            ft_epochs: 0,
            ft_bytes: 0,
            steals: 0,
            node: None,
        }
    }
}

/// One slot per PE holding its [`Node`] for the current generation; with
/// work stealing on, any sibling thread may briefly lock a slot to admit
/// or complete an execution against that node.  Slots of PEs hosted by
/// another process stay empty.
pub(super) type NodeBank = Arc<Vec<Mutex<Option<Node>>>>;

/// A bank of `n_pes` slots holding each of `nodes` at its PE's index.
pub(super) fn bank_of(n_pes: usize, nodes: Vec<Node>) -> NodeBank {
    let mut slots: Vec<Option<Node>> = (0..n_pes).map(|_| None).collect();
    for node in nodes {
        let i = node.pe().index();
        slots[i] = Some(node);
    }
    Arc::new(slots.into_iter().map(Mutex::new).collect())
}

/// Spawn [`pe_loop`] for `pe` on a thread called `name`.
pub(super) fn spawn_pe(name: String, pe: Pe, bank: &NodeBank, ctl: ThreadCtl) -> (Pe, JoinHandle<PeResult>) {
    let bank = Arc::clone(bank);
    let handle = std::thread::Builder::new().name(name).spawn(move || pe_loop(pe, bank, ctl)).expect("spawn PE thread");
    (pe, handle)
}

/// One generation's message stack: the raw transport with its
/// cross-cluster device chain, the reliable layer and the aggregator.
/// Both the in-process and the TCP engine build theirs with
/// [`MsgStack::build`].
pub(super) struct MsgStack {
    pub(super) raw: Arc<Transport>,
    pub(super) transport: Arc<ReliableTransport>,
    pub(super) agg: Arc<Aggregator>,
    /// The fault device and the CRC verifier behind it (fault plan only).
    injected: Option<(Arc<FaultDevice>, Arc<CrcDevice>)>,
}

impl MsgStack {
    /// Build the stack over `tc` for the run's fault plan, flow control
    /// and aggregation settings.
    ///
    /// With a fault plan the cross-cluster chain becomes checksum → fault
    /// injection → verify → delay: an injected corruption fails the CRC
    /// and is dropped (counted), so it reaches the reliable layer as a
    /// plain loss.  Without a plan the chain and the wrapper are both
    /// zero-overhead passthroughs.
    pub(super) fn build(mut tc: TransportConfig, cfg: &RunConfig) -> MsgStack {
        let injected = cfg.fault_plan.clone().map(|plan| {
            let fault = FaultDevice::for_reliable(plan);
            let verify = CrcDevice::verifier();
            tc.cross_extra = vec![CrcDevice::appender(), fault.clone(), verify.clone()];
            (fault, verify)
        });
        let raw = Transport::new(tc);
        let transport = match (&cfg.fault_plan, cfg.flow) {
            (Some(plan), Some(flow)) => ReliableTransport::with_flow(Arc::clone(&raw), plan.clone(), flow),
            (Some(plan), None) => ReliableTransport::with_plan(Arc::clone(&raw), plan.clone()),
            // Credit grants ride acks, so flow control needs the
            // reliable layer even on a clean network; a generous RTO
            // keeps the retransmit machinery from firing spuriously.
            (None, Some(flow)) => ReliableTransport::with_flow(
                Arc::clone(&raw),
                FaultPlan::default().with_rto(Dur::from_millis(1000)),
                flow,
            ),
            (None, None) => ReliableTransport::passthrough(Arc::clone(&raw)),
        };
        let agg = match (cfg.agg, cfg.flow) {
            (Some(c), Some(f)) => Aggregator::with_flow(Arc::clone(&transport), c, f),
            (Some(c), None) => Aggregator::with_policy(Arc::clone(&transport), c),
            (None, _) => Aggregator::passthrough(Arc::clone(&transport)),
        };
        MsgStack { raw, transport, agg, injected }
    }

    /// Packets the injected devices dropped, rejected by CRC and reordered.
    pub(super) fn fault_stats(&self) -> (u64, u64, u64) {
        self.injected
            .as_ref()
            .map(|(fault, verify)| {
                let s = fault.stats();
                (s.dropped, verify.rejected(), s.reordered)
            })
            .unwrap_or_default()
    }

    /// High-water marks of `pe`'s queued envelopes and queued bytes.
    /// Backlog can sit in the raw mailbox or (aggregating) in the unframed
    /// pending bank; the marks see both.
    pub(super) fn high_water(&self, pe: Pe) -> (usize, u64) {
        let mailbox = self.raw.mailbox(pe);
        let depth = mailbox.max_depth().max(self.agg.pending_max_depth(pe));
        (depth, mailbox.max_bytes() as u64 + self.agg.pending_max_bytes(pe) as u64)
    }

    /// Flush still-buffered frames, stop retransmissions, then wake every
    /// receiver so the PE threads wind down.
    pub(super) fn shutdown(&self) {
        self.agg.shutdown();
        self.transport.shutdown();
        self.raw.shutdown();
    }
}

/// Per-PE liveness flags shared with the watchdog.
pub(super) const PE_ALIVE: u8 = 0;
pub(super) const PE_CRASHED: u8 = 1;
pub(super) const PE_PANICKED: u8 = 2;

/// Shared wiring handed to every PE thread.
#[derive(Clone)]
pub(super) struct ThreadCtl {
    pub(super) agg: Arc<Aggregator>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) exit_announced: Arc<AtomicBool>,
    pub(super) end_ns: Arc<AtomicU64>,
    pub(super) decode_rejected: Arc<AtomicU64>,
    pub(super) status: Arc<Vec<AtomicU8>>,
    pub(super) last_heard: Arc<Vec<AtomicU64>>,
    pub(super) t0: Instant,
    pub(super) topo: Topology,
    pub(super) record_on: bool,
    pub(super) obs_cfg: ObsConfig,
    /// Current → original PE numbering for this generation; recorders log
    /// in original numbers so generations concatenate.
    pub(super) orig_map: Arc<Vec<Pe>>,
    pub(super) compute_sleep: bool,
    /// Let an idle thread run same-cluster siblings' queued application
    /// envelopes ([`RunConfig::steal`]).
    pub(super) steal: bool,
    /// Heartbeat cadence; `None` disables liveness traffic (no failure plan).
    pub(super) hb_interval: Option<Duration>,
    /// This PE's injected crash, already translated to the current
    /// generation's numbering.
    pub(super) crash: Option<CrashTrigger>,
    /// Envelopes this PE had processed in previous generations (crash
    /// triggers count across restarts).
    pub(super) msgs_before: u64,
    /// Set to (epoch + 1) by PE 0 when a buddy-checkpoint epoch completes
    /// cluster-wide; the watchdog admits pending joins only when non-zero,
    /// so the widened cluster always has a snapshot to restart from.
    pub(super) ckpt_done: Arc<AtomicU64>,
}

pub(super) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl ThreadedEngine {
    /// An engine over `topo` with injected latencies `tcfg`.
    pub fn new(topo: Topology, tcfg: ThreadedConfig, cfg: RunConfig) -> Self {
        ThreadedEngine { topo, tcfg, cfg }
    }

    /// Run `program` until it exits (or the wall-clock safety limit).
    ///
    /// With a [`mdo_netsim::FailurePlan`] armed, every PE thread mails
    /// heartbeats to PE 0 and the watchdog turns a silent PE into failure
    /// suspicion after `suspect_after`; suspected or panicked PEs trigger
    /// buddy-checkpoint recovery over the survivors — the same shrink +
    /// restore protocol as the virtual-time engine, driven by wall-clock
    /// generations of real threads.
    pub fn run(self, program: Program) -> RunReport {
        // Multi-process mode: each process runs only its own cluster's PEs
        // and cross-cluster traffic moves over real TCP.  Transport-level
        // failures (rendezvous, handshake, a dead peer) abort loudly —
        // callers that want them structured use
        // [`super::net::run_multi_process`] directly.
        if self.cfg.net.is_some() {
            return match super::net::run_multi_process(self.topo, self.tcfg, self.cfg, program) {
                Ok(report) => report,
                Err(e) => panic!("multi-process run failed: {e}"),
            };
        }
        let ThreadedEngine { topo, tcfg, cfg } = self;
        let orig_n_pes = topo.num_pes();
        let record_on = cfg.obs_active();
        let obs_cfg = cfg.obs.clone().unwrap_or_default();
        let failure_plan = cfg.failure_plan.clone();
        let join_plan = cfg.join_plan.clone();
        let restart_cfg = cfg.clone();
        // Original cluster of every original PE: a rejoin without an
        // explicit cluster goes back where the PE came from.
        let orig_cluster_of: Vec<ClusterId> = topo.pes().map(|pe| topo.cluster_of(pe)).collect();
        let (mut shared, host) = split_program(program, topo, cfg);

        let decode_rejected = Arc::new(AtomicU64::new(0));
        let exit_announced = Arc::new(AtomicBool::new(false));
        let end_ns = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let deadline = t0 + tcfg.max_wall;

        // Cross-generation bookkeeping, indexed by ORIGINAL PE number;
        // `orig` maps the current (post-shrink) numbering back to it.
        let mut orig: Vec<Pe> = (0..orig_n_pes as u32).map(Pe).collect();
        let mut pending = failure_plan.as_ref().map(|p| p.crashes.clone()).unwrap_or_default();
        let mut pe_busy_total = vec![Dur::ZERO; orig_n_pes];
        let mut pe_messages_total = vec![0u64; orig_n_pes];
        let mut pe_queue_depth = vec![0usize; orig_n_pes];
        let mut network = NetworkStats::default();
        let mut peak_mailbox_bytes = 0u64;
        let mut faults_total = FaultModelStats::default();
        // One accumulated recording per ORIGINAL PE; each generation's
        // per-thread recordings are absorbed here after the join.
        let mut obs_total: Vec<PeObs> = (0..orig_n_pes as u32).map(PeObs::empty).collect();
        // Engine-global counter registry: the run report's scalar fault /
        // failure tallies are read back from here at the end.
        let mut gctr = CounterSet::new();
        let mut lb_rounds_total = 0u32;
        let mut migrations_total = 0u64;
        let mut rebalance_total = 0u32;
        let mut failures: Vec<PeFailed> = Vec::new();
        let mut unrecoverable: Option<UnrecoverableError> = None;
        let mut transport_error: Option<TransportError> = None;
        let mut pending_joins = join_plan.as_ref().map(|p| p.joins.clone()).unwrap_or_default();
        // (epoch + 1) of the newest buddy-checkpoint epoch known complete
        // this generation; 0 until PE 0 sees a full round of acks.
        let ckpt_done = Arc::new(AtomicU64::new(0));
        gctr.bump(Ctr::Generations);

        let mut host = Some(host);
        let mut nodes: Vec<Node> = shared
            .topo
            .pes()
            .map(|pe| {
                let h = if pe == Pe(0) { host.take().expect("host once") } else { HostParts::empty() };
                Node::new(Arc::clone(&shared), pe, h)
            })
            .collect();

        'generations: loop {
            let gen_topo = shared.topo.clone();
            let n_pes = gen_topo.num_pes();
            // Checkpoint epochs restart with the generation; pending joins
            // wait for a fresh complete epoch on the new cluster.
            ckpt_done.store(0, Ordering::Release);

            let stack = MsgStack::build(TransportConfig::new(gen_topo.clone(), tcfg.latency.clone()), &restart_cfg);
            let (raw, transport, agg) = (&stack.raw, &stack.transport, &stack.agg);
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
                record_on,
                obs_cfg: obs_cfg.clone(),
                orig_map: Arc::new(orig.clone()),
                compute_sleep: tcfg.compute_sleep,
                steal: restart_cfg.steal,
                hb_interval: failure_plan.as_ref().map(|p| p.hb_interval.to_std()),
                crash: None,
                msgs_before: 0,
                ckpt_done: Arc::clone(&ckpt_done),
            };
            let bank = bank_of(n_pes, std::mem::take(&mut nodes));
            let handles: Vec<_> = gen_topo
                .pes()
                .map(|pe| {
                    let o = orig[pe.index()];
                    let ctl = ThreadCtl {
                        crash: pending.iter().find(|s| s.pe == o).map(|s| s.trigger),
                        msgs_before: pe_messages_total[o.index()],
                        ..base.clone()
                    };
                    spawn_pe(format!("mdo-pe{}", pe.0), pe, &bank, ctl)
                })
                .collect();

            // Boot the program (after a recovery the startup closure is
            // gone, so PE 0 goes straight to the restore-resume broadcast).
            let startup = Envelope {
                src: Pe(0),
                dst: Pe(0),
                priority: SYSTEM_PRIORITY,
                sent_at_ns: gen_start,
                body: MsgBody::Startup,
            };
            agg.send_with(Pe(0), Pe(0), SYSTEM_PRIORITY, true, |buf| startup.encode_into(buf));

            // Watchdog: wall-clock ceiling, retry exhaustion, panic flags,
            // and (with a failure plan) heartbeat suspicion.
            let suspect_after = failure_plan.as_ref().map(|p| p.suspect_after.as_nanos());
            let mut flagged = vec![false; n_pes];
            let mut gen_failed: Vec<(Pe, FailureCause)> = Vec::new();
            let mut gen_join: Vec<JoinSpec> = Vec::new();
            loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if Instant::now() >= deadline {
                    stop.store(true, Ordering::Release);
                    break;
                }
                for i in 0..n_pes {
                    if flagged[i] || status[i].load(Ordering::Acquire) != PE_PANICKED {
                        continue;
                    }
                    flagged[i] = true;
                    if failure_plan.is_none() {
                        unrecoverable = Some(UnrecoverableError::NoFailurePlan { pe: orig[i] });
                    } else if i == 0 {
                        unrecoverable = Some(UnrecoverableError::HostFailed);
                    } else {
                        gen_failed.push((Pe(i as u32), FailureCause::Panic));
                    }
                }
                if let Some(err) = transport.error() {
                    if failure_plan.is_some() && err.dst != Pe(0) {
                        // With fault tolerance armed, a peer that exhausts
                        // retries is failure evidence, not a fatal error.
                        if !flagged[err.dst.index()] {
                            flagged[err.dst.index()] = true;
                            gen_failed.push((err.dst, FailureCause::Unresponsive));
                        }
                    } else {
                        transport_error = Some(err);
                        stop.store(true, Ordering::Release);
                        break;
                    }
                }
                if let Some(limit) = suspect_after {
                    let now = elapsed_ns(t0);
                    // PE 0 is exempt: the detector runs next to it, and a
                    // PE 0 failure is unrecoverable anyway (see DESIGN.md).
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
                            gen_failed.push((Pe(i as u32), cause));
                        }
                    }
                }
                // Admit due joiners only at a safe point: no failure in
                // flight and a complete buddy checkpoint to restart from.
                // A joiner whose PE is still alive is dropped (nothing to
                // rejoin).
                if !pending_joins.is_empty() && gen_failed.is_empty() && ckpt_done.load(Ordering::Acquire) > 0 {
                    let recoveries_so_far = gctr.get(Ctr::Recoveries) as u32;
                    let mut i = 0;
                    while i < pending_joins.len() {
                        let fired = match pending_joins[i].trigger {
                            JoinTrigger::AtTime(at) => t0.elapsed() >= at.to_std(),
                            JoinTrigger::AfterRecoveries(n) => recoveries_so_far >= n,
                        };
                        if fired {
                            let spec = pending_joins.remove(i);
                            if !orig.contains(&spec.pe) {
                                gen_join.push(spec);
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
                if unrecoverable.is_some() || !gen_failed.is_empty() || !gen_join.is_empty() {
                    stop.store(true, Ordering::Release);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            stack.shutdown();

            let mut results: Vec<PeResult> =
                handles.into_iter().map(|(pe, h)| h.join().unwrap_or_else(|_| PeResult::lost(pe))).collect();
            results.sort_by_key(|r| r.pe);

            // A buddy pair dying at the same instant may have only one
            // member past the suspicion threshold when the watchdog fires;
            // the joined status flags name every casualty.
            if failure_plan.is_some() && unrecoverable.is_none() {
                for (i, r) in results.iter().enumerate() {
                    let died = r.node.is_none() || status[i].load(Ordering::Acquire) != PE_ALIVE;
                    if died && !flagged[i] && i != 0 {
                        flagged[i] = true;
                        let cause = if status[i].load(Ordering::Acquire) == PE_CRASHED {
                            FailureCause::Injected
                        } else {
                            FailureCause::Unresponsive
                        };
                        gen_failed.push((Pe(i as u32), cause));
                    }
                }
            }

            // Close this generation's books (original PE numbering).
            let (intra_pkts, intra_bytes) = raw.intra_traffic();
            let (cross_pkts, cross_bytes) = raw.cross_traffic();
            network.intra_messages += intra_pkts;
            network.intra_bytes += intra_bytes;
            network.cross_messages += cross_pkts;
            network.cross_bytes += cross_bytes;
            let (dropped, crc_rejected, reordered) = stack.fault_stats();
            faults_total.dropped += dropped;
            faults_total.corrupt_rejected += crc_rejected;
            faults_total.dup_dropped += transport.dup_dropped();
            faults_total.reordered += reordered;
            faults_total.retransmits += transport.retransmits();
            let ast = agg.stats();
            gctr.add(Ctr::FramesSent, ast.frames_sent);
            gctr.add(Ctr::EnvelopesCoalesced, ast.envelopes_coalesced);
            gctr.add(Ctr::FrameBytesSaved, ast.bytes_saved);
            gctr.add(Ctr::FlushBySize, ast.flush_by_size);
            gctr.add(Ctr::FlushByDeadline, ast.flush_by_deadline);
            gctr.add(Ctr::CreditStalls, transport.credit_stalls());
            gctr.add(Ctr::CreditWaitNs, transport.credit_wait_ns());
            gctr.add(Ctr::EnvelopesShed, ast.envelopes_shed);
            gctr.add(Ctr::ShedBytes, ast.shed_bytes);
            gctr.add(Ctr::QueueFull, ast.queue_full);
            gctr.add(Ctr::MailboxSignals, gen_topo.pes().map(|pe| raw.mailbox(pe).wakeup_signals()).sum::<u64>());
            for r in &mut results {
                gctr.add(Ctr::Steals, r.steals);
                let o = orig[r.pe.index()].index();
                pe_busy_total[o] += r.busy;
                pe_messages_total[o] += r.messages;
                let (depth, bytes) = stack.high_water(r.pe);
                pe_queue_depth[o] = pe_queue_depth[o].max(depth);
                peak_mailbox_bytes = peak_mailbox_bytes.max(bytes);
                if record_on {
                    // One mailbox high-water sample per generation: the
                    // threads cannot observe queue depth from outside.
                    r.obs.queue_depth.record(depth as u64);
                    obs_total[o].absorb(std::mem::replace(&mut r.obs, PeObs::empty(r.pe.0)));
                }
            }
            let gen_lb_rounds = results[0].lb_rounds;
            lb_rounds_total += gen_lb_rounds;
            migrations_total += results[0].migrations;
            rebalance_total += results[0].rebalance;
            gctr.add(Ctr::CheckpointsTaken, results[0].ft_epochs as u64);
            gctr.add(Ctr::CheckpointBytes, results.iter().map(|r| r.ft_bytes).sum::<u64>());

            let exited = exit_announced.load(Ordering::Acquire);
            if unrecoverable.is_some()
                || transport_error.is_some()
                || exited
                || (gen_failed.is_empty() && gen_join.is_empty())
            {
                break 'generations;
            }

            if gen_failed.is_empty() {
                // ---- expand: admit the joiners and restart wide ----------
                // Everyone (survivors and joiners alike) restarts from the
                // newest complete buddy snapshot, exactly as across a
                // shrink; `ckpt_done` guaranteed one exists before the
                // watchdog stopped the generation.
                let at = Time::from_nanos(elapsed_ns(t0));
                let mut joiners: Vec<(ClusterId, Pe)> = gen_join
                    .drain(..)
                    .map(|s| {
                        let cid = s.cluster.unwrap_or_else(|| {
                            *orig_cluster_of
                                .get(s.pe.index())
                                .expect("a brand-new PE joining must name an explicit cluster")
                        });
                        (cid, s.pe)
                    })
                    .collect();
                joiners.sort_unstable();
                let added: Vec<ClusterId> = joiners.iter().map(|&(c, _)| c).collect();

                let mut alive: Vec<Node> = results.into_iter().filter_map(|r| r.node).collect();
                let mut pieces = Vec::new();
                for node in alive.iter_mut() {
                    pieces.extend(node.take_ft_pieces());
                }
                let expected: Vec<(ArrayId, usize)> = shared.arrays.iter().map(|a| (a.id, a.n_elems)).collect();
                let Some((snapshot, snap_round)) = assemble_buddy_snapshot(&expected, &pieces) else {
                    unrecoverable = Some(UnrecoverableError::NoCompleteSnapshot { failed: Vec::new() });
                    break 'generations;
                };
                gctr.add(Ctr::StepsReplayed, gen_lb_rounds.saturating_sub(snap_round) as u64);
                let host_parts = alive.iter_mut().find(|n| n.pe() == Pe(0)).expect("PE 0 alive").take_host();

                // Widen the per-original-PE books if a joiner's number lies
                // beyond the boot topology (a brand-new PE, not a rejoin).
                let max_orig = joiners.iter().map(|&(_, pe)| pe.index() + 1).max().unwrap_or(0);
                if max_orig > pe_busy_total.len() {
                    pe_busy_total.resize(max_orig, Dur::ZERO);
                    pe_messages_total.resize(max_orig, 0);
                    pe_queue_depth.resize(max_orig, 0);
                    for pe in obs_total.len() as u32..max_orig as u32 {
                        obs_total.push(PeObs::empty(pe));
                    }
                }

                // Joiners land at the end of their cluster's PE range; the
                // map's `None` slots pair with the per-cluster joiner FIFO.
                let (new_topo, new_map) = shared.topo.with_pes(&added);
                let mut fifo = joiners.clone();
                orig = new_map
                    .iter()
                    .enumerate()
                    .map(|(cur, slot)| match slot {
                        Some(old_cur) => orig[old_cur.index()],
                        None => {
                            let cid = new_topo.cluster_of(Pe(cur as u32));
                            let i = fifo.iter().position(|&(c, _)| c == cid).expect("joiner for slot");
                            fifo.remove(i).1
                        }
                    })
                    .collect();
                shared = Arc::new(NodeShared {
                    topo: new_topo,
                    arrays: shared.arrays.clone(),
                    cfg: restart_cfg.clone(),
                    restore: Some(Arc::new(snapshot)),
                });
                let mut host_parts = Some(host_parts);
                nodes = shared
                    .topo
                    .pes()
                    .map(|pe| {
                        let h = if pe == Pe(0) { host_parts.take().expect("host once") } else { HostParts::empty() };
                        Node::new(Arc::clone(&shared), pe, h)
                    })
                    .collect();
                gctr.add(Ctr::PesJoined, joiners.len() as u64);
                gctr.bump(Ctr::Generations);
                if record_on {
                    for &o in &orig {
                        obs_total[o.index()].events.push(ObsEvent::Recovery { at });
                    }
                }
                continue 'generations;
            }
            // Joins racing a failure wait for the next generation: put them
            // back, recover first.
            pending_joins.append(&mut gen_join);

            // Recover over the survivors: reassemble the newest complete
            // buddy snapshot, shrink the topology, and restart from it.
            let at = Time::from_nanos(elapsed_ns(t0));
            for &(cur, cause) in &gen_failed {
                failures.push(PeFailed { pe: orig[cur.index()], at, cause });
            }
            let dead_cur: Vec<Pe> = gen_failed.iter().map(|&(c, _)| c).collect();
            let mut survivors: Vec<Node> =
                results.into_iter().filter(|r| !dead_cur.contains(&r.pe)).filter_map(|r| r.node).collect();
            let mut pieces = Vec::new();
            for node in survivors.iter_mut() {
                pieces.extend(node.take_ft_pieces());
            }
            let expected: Vec<(ArrayId, usize)> = shared.arrays.iter().map(|a| (a.id, a.n_elems)).collect();
            let Some((snapshot, snap_round)) = assemble_buddy_snapshot(&expected, &pieces) else {
                unrecoverable =
                    Some(UnrecoverableError::NoCompleteSnapshot { failed: failures.iter().map(|f| f.pe).collect() });
                break 'generations;
            };
            gctr.add(Ctr::StepsReplayed, gen_lb_rounds.saturating_sub(snap_round) as u64);
            let host_parts = survivors.iter_mut().find(|n| n.pe() == Pe(0)).expect("PE 0 survives").take_host();
            pending.retain(|s| !failures.iter().any(|f| f.pe == s.pe));
            let (new_topo, new_map) = shared.topo.without_pes(&dead_cur);
            orig = new_map.iter().map(|&cur| orig[cur.index()]).collect();
            shared = Arc::new(NodeShared {
                topo: new_topo,
                arrays: shared.arrays.clone(),
                cfg: restart_cfg.clone(),
                restore: Some(Arc::new(snapshot)),
            });
            let mut host_parts = Some(host_parts);
            nodes = shared
                .topo
                .pes()
                .map(|pe| {
                    let h = if pe == Pe(0) { host_parts.take().expect("host once") } else { HostParts::empty() };
                    Node::new(Arc::clone(&shared), pe, h)
                })
                .collect();
            gctr.bump(Ctr::Recoveries);
            gctr.bump(Ctr::Generations);
            if record_on {
                // Mark the resume on every surviving PE's stream (original
                // numbering — `orig` was just remapped to the survivors).
                for &o in &orig {
                    obs_total[o.index()].events.push(ObsEvent::Recovery { at });
                }
            }
        }

        let end = end_ns.load(Ordering::Acquire);
        let end_time = if end > 0 { Time::from_nanos(end) } else { Time::from_nanos(elapsed_ns(t0)) };
        faults_total.corrupt_rejected += decode_rejected.load(Ordering::Relaxed);

        // Mirror the fault-layer and failure tallies into the registry so
        // the report's scalars and the obs counters come from one place.
        gctr.add(Ctr::ObjectsMigrated, migrations_total);
        gctr.add(Ctr::RebalanceTriggers, rebalance_total as u64);
        gctr.add(Ctr::Drops, faults_total.dropped);
        gctr.add(Ctr::Retransmits, faults_total.retransmits);
        gctr.add(Ctr::DupDropped, faults_total.dup_dropped);
        gctr.add(Ctr::CorruptRejected, faults_total.corrupt_rejected);
        gctr.add(Ctr::Reordered, faults_total.reordered);
        gctr.add(Ctr::FailuresDetected, failures.len() as u64);

        let obs = record_on.then(|| ObsReport { pes: obs_total, counters: gctr.clone() });

        RunReport {
            end_time,
            pe_busy: pe_busy_total,
            pe_messages: pe_messages_total,
            pe_max_queue_depth: pe_queue_depth,
            network,
            obs,
            lb_rounds: lb_rounds_total,
            migrations: migrations_total,
            faults: faults_total,
            transport_error,
            failures_detected: gctr.get_u32(Ctr::FailuresDetected),
            recoveries: gctr.get_u32(Ctr::Recoveries),
            pes_joined: gctr.get_u32(Ctr::PesJoined),
            generations: gctr.get_u32(Ctr::Generations),
            rebalance_triggers: gctr.get_u32(Ctr::RebalanceTriggers),
            objects_migrated: gctr.get(Ctr::ObjectsMigrated),
            steps_replayed: gctr.get_u32(Ctr::StepsReplayed),
            checkpoints_taken: gctr.get_u32(Ctr::CheckpointsTaken),
            checkpoint_bytes: gctr.get(Ctr::CheckpointBytes),
            failures,
            unrecoverable,
            credit_stalls: gctr.get(Ctr::CreditStalls),
            credit_wait: Dur::from_nanos(gctr.get(Ctr::CreditWaitNs)),
            queue_full: gctr.get(Ctr::QueueFull),
            sheds: gctr.get(Ctr::EnvelopesShed),
            shed_bytes: gctr.get(Ctr::ShedBytes),
            peak_mailbox_bytes,
        }
    }
}

/// Distribute the measured wall time of one handler execution over its
/// charged spans (proportionally), so threaded timelines keep the same
/// span structure the virtual-time engine records.  Uncharged executions
/// book the whole wall time on the first span (or an anonymous one).
fn record_spans(rec: &mut PeRecorder, outcome: &HandleOutcome, start: Time, took: Dur) {
    if outcome.spans.is_empty() {
        rec.handler(None, start, start + took);
        return;
    }
    let charged = outcome.charged.as_nanos();
    let mut cursor = start;
    for (i, (obj, d)) in outcome.spans.iter().enumerate() {
        let w = if charged == 0 {
            if i == 0 {
                took
            } else {
                Dur::ZERO
            }
        } else {
            Dur::from_nanos((took.as_nanos() as u128 * d.as_nanos() as u128 / charged as u128) as u64)
        };
        rec.handler((*obj).map(ObjTag::from), cursor, cursor + w);
        cursor += w;
    }
}

/// Bodies that enumerate the whole object table (packing element state or
/// resuming every element): they must not run while a chare is checked
/// out, or the missing element would be dropped from the
/// snapshot / migration batch.
fn needs_elem_quiescence(body: &MsgBody) -> bool {
    matches!(
        body,
        MsgBody::LbAssign { .. }
            | MsgBody::CkptCollect
            | MsgBody::BuddyCollect { .. }
            | MsgBody::RestoreResume
            | MsgBody::LbResume
    )
}

/// Outcome of executing one envelope against a banked node.
enum ExecResult {
    Done(HandleOutcome),
    /// The home node is gone (its PE died); the envelope is dropped.
    HomeGone,
    /// The handler panicked; `home`'s status flag is set and its node
    /// destroyed (the watchdog recovers or surfaces the error).
    Panicked,
}

/// Execute one decoded envelope against `home`'s node in the bank.
///
/// App envelopes take the checkout path: the target chare is removed from
/// the home node's table under its slot lock, `Chare::receive` runs with
/// no lock held (so the home PE keeps dispatching other elements), and
/// the handler's buffered output is routed on check-in.  Every other body
/// runs under the slot lock via [`Node::handle`]; the few bodies that
/// enumerate the object table first wait for in-flight checkouts to land.
fn execute_on(home: Pe, env: Envelope, bank: &NodeBank, hooks: &mut ThreadHooks, ctl: &ThreadCtl) -> ExecResult {
    let slot_of = |pe: Pe| bank[pe.index()].lock().unwrap_or_else(|e| e.into_inner());
    if let MsgBody::App { target, entry, payload } = &env.body {
        let (target, entry, payload, priority) = (*target, *entry, payload.clone(), env.priority);
        let admit = {
            let mut slot = slot_of(home);
            let Some(node) = slot.as_mut() else { return ExecResult::HomeGone };
            node.begin_app(target, entry, payload.clone(), priority, hooks)
        };
        let AppRun { mut chare, key, shared } = match admit {
            AppAdmit::Done(outcome) => return ExecResult::Done(outcome),
            AppAdmit::Run(run) => run,
        };
        let mut sink = CtxSink::default();
        let res = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Ctx { now: hooks.now(), pe: home, topo: &shared.topo, me: Some(key), sink: &mut sink };
            chare.receive(entry, &payload, &mut ctx);
        }));
        let mut slot = slot_of(home);
        match res {
            Ok(()) => match slot.as_mut() {
                Some(node) => ExecResult::Done(node.finish_app(key, chare, sink, hooks)),
                None => ExecResult::HomeGone,
            },
            Err(_) => {
                ctl.status[home.index()].store(PE_PANICKED, Ordering::Release);
                *slot = None;
                ExecResult::Panicked
            }
        }
    } else {
        let gated = needs_elem_quiescence(&env.body);
        let mut env = Some(env);
        loop {
            {
                let mut slot = slot_of(home);
                let Some(node) = slot.as_mut() else { return ExecResult::HomeGone };
                if !gated || node.app_running() == 0 {
                    let e = env.take().expect("envelope consumed once");
                    return match catch_unwind(AssertUnwindSafe(|| node.handle(e, hooks))) {
                        Ok(outcome) => ExecResult::Done(outcome),
                        Err(_) => {
                            ctl.status[home.index()].store(PE_PANICKED, Ordering::Release);
                            *slot = None;
                            ExecResult::Panicked
                        }
                    };
                }
            }
            // A checkout is in flight; it completes after a bounded
            // handler execution, so spin politely.
            std::thread::yield_now();
        }
    }
}

/// The message-driven scheduler of one PE, run by both the in-process and
/// the TCP engine: take the next packet from this PE's mailbox — or, with
/// [`RunConfig::steal`] and an empty mailbox, from a same-cluster
/// sibling's — decode it and execute it against its home node in the
/// bank.  The loop also reconciles sheds (PE 0), fires injected crashes,
/// sends heartbeats, drains on stop and announces the exit.
pub(super) fn pe_loop(pe: Pe, bank: NodeBank, ctl: ThreadCtl) -> PeResult {
    let mut busy = Dur::ZERO;
    let mut steals = 0u64;
    let mut hooks = ThreadHooks {
        t0: ctl.t0,
        pe,
        agg: Arc::clone(&ctl.agg),
        rec: PeRecorder::maybe(ctl.record_on, ctl.orig_map[pe.index()].0, &ctl.obs_cfg),
        orig: Arc::clone(&ctl.orig_map),
        topo: ctl.topo.clone(),
    };
    let mut died = false;
    let mut idle_pending = false;
    let mut last_hb: Option<Instant> = None;
    let mut sheds_seen = 0u64;
    // Steal only from same-cluster siblings: stealing is an intra-node
    // remap, and the mailbox-level filter additionally refuses system and
    // cross-WAN packets.
    let victims: Vec<Pe> = if ctl.steal {
        ctl.topo.pes().filter(|&v| v != pe && !ctl.topo.crosses_wan(pe, v)).collect()
    } else {
        Vec::new()
    };
    // With victims to poll, block only briefly so a sibling's backlog is
    // noticed soon; with none, only our own mailbox can bring work.
    let wait = Duration::from_millis(if victims.is_empty() { 20 } else { 1 });
    loop {
        {
            let mut slot = bank[pe.index()].lock().unwrap_or_else(|e| e.into_inner());
            let Some(node) = slot.as_mut() else {
                // A sibling panicked while executing one of our chares:
                // this PE is dead (its status flag is already set).
                died = true;
                break;
            };
            // Quiescence reconciliation: a shed envelope was counted as
            // sent at its origin but will never be delivered; PE 0 folds
            // the delta into the books so the sent/processed sums balance.
            if pe == Pe(0) {
                let shed = ctl.agg.sheds_total();
                if shed > sheds_seen {
                    node.note_sheds(shed - sheds_seen);
                    sheds_seen = shed;
                }
            }
            // An injected crash kills the thread silently: no goodbye
            // message, no flushing — the failure detector has to notice.
            if let Some(trigger) = ctl.crash {
                let due = match trigger {
                    CrashTrigger::AtTime(at) => ctl.t0.elapsed() >= at.to_std(),
                    CrashTrigger::AfterMessages(n) => ctl.msgs_before + node.messages_processed() >= n,
                };
                if due {
                    ctl.status[pe.index()].store(PE_CRASHED, Ordering::Release);
                    // The crashed PE's in-memory state is gone — and the
                    // empty slot stops siblings from executing for a corpse.
                    *slot = None;
                    died = true;
                    break;
                }
            }
        }
        if let Some(interval) = ctl.hb_interval {
            if pe == Pe(0) {
                // The detector runs next to PE 0, which refreshes its own
                // slot directly instead of mailing itself.
                ctl.last_heard[0].store(elapsed_ns(ctl.t0), Ordering::Release);
            } else if last_hb.is_none_or(|t| t.elapsed() >= interval) {
                last_hb = Some(Instant::now());
                let hb = Envelope {
                    src: pe,
                    dst: Pe(0),
                    priority: SYSTEM_PRIORITY,
                    sent_at_ns: elapsed_ns(ctl.t0),
                    body: MsgBody::Heartbeat,
                };
                ctl.agg.send_with(pe, Pe(0), SYSTEM_PRIORITY, true, |buf| hb.encode_into(buf));
            }
        }
        if ctl.stop.load(Ordering::Acquire) {
            // Drain whatever is already queued, then leave.
            if ctl.agg.try_recv(pe).is_none() {
                break;
            }
        }
        // Own mailbox first; empty → try same-cluster siblings; nothing
        // anywhere → a short blocking wait on our own queue.
        let (pkt, home) = if let Some(p) = ctl.agg.try_recv(pe) {
            (p, pe)
        } else {
            let mut stolen = None;
            if !ctl.stop.load(Ordering::Acquire) {
                for &v in &victims {
                    if ctl.status[v.index()].load(Ordering::Acquire) != PE_ALIVE {
                        continue;
                    }
                    if let Some(p) = ctl.agg.try_steal(v) {
                        stolen = Some((p, v));
                        break;
                    }
                }
            }
            match stolen {
                Some(s) => {
                    steals += 1;
                    s
                }
                None => match ctl.agg.recv_timeout(pe, wait) {
                    Some(p) => (p, pe),
                    None => {
                        if idle_pending {
                            idle_pending = false;
                            hooks.rec.idle(Time::from_nanos(elapsed_ns(ctl.t0)));
                        }
                        continue;
                    }
                },
            }
        };
        // Borrowing decode: the envelope's payload fields alias the packet
        // (and, for coalesced traffic, the whole frame's) allocation.
        let env = match Envelope::decode_shared(&pkt.payload) {
            Ok(env) => env,
            Err(e) => {
                // A packet that survived the transport but does not parse
                // is rejected and counted, never fatal: with fault
                // injection the sender's retransmission carries an intact
                // copy, and without it one bad packet must not take down
                // the whole PE.
                ctl.decode_rejected.fetch_add(1, Ordering::Relaxed);
                eprintln!("mdo-pe{}: dropping undecodable packet from {}: {e:?}", pe.0, pkt.src);
                continue;
            }
        };
        if ctl.hb_interval.is_some() && pe == Pe(0) && home == pe && matches!(env.body, MsgBody::Heartbeat) {
            ctl.last_heard[env.src.index()].store(elapsed_ns(ctl.t0), Ordering::Release);
            continue;
        }
        let started = Instant::now();
        let start_time = Time::from_nanos(elapsed_ns(ctl.t0));
        let sent_at = Time::from_nanos(env.sent_at_ns);
        let (src, dst) = (env.src, env.dst);
        let sys = env.priority == SYSTEM_PRIORITY;
        let wire_bytes = pkt.payload.len() as u64;
        // The envelope executes against its HOME node: emissions carry the
        // home PE as src, its QD and load books are charged — only the OS
        // thread differs, which is exactly the "transient remap" contract.
        // A panicking handler takes down its home PE, not the process: the
        // watchdog sees the flag and recovers or reports the error.
        hooks.pe = home;
        let result = execute_on(home, env, &bank, &mut hooks, &ctl);
        hooks.pe = pe;
        let outcome = match result {
            ExecResult::Done(outcome) => outcome,
            ExecResult::HomeGone => continue,
            ExecResult::Panicked => {
                if home == pe {
                    died = true;
                    break;
                }
                // A stolen execution killed its home PE; this thread lives.
                continue;
            }
        };
        if let Some(epoch) = outcome.ckpt_complete {
            ctl.ckpt_done.store(epoch as u64 + 1, Ordering::Release);
        }
        if ctl.compute_sleep && !outcome.charged.is_zero() {
            std::thread::sleep(outcome.charged.to_std());
        }
        let took = Dur::from_std(started.elapsed());
        busy += took;
        if hooks.rec.is_on() {
            hooks.rec.recv(
                start_time,
                ctl.orig_map[src.index()].0,
                sent_at,
                wire_bytes,
                ctl.topo.crosses_wan(src, dst),
                sys,
            );
            record_spans(&mut hooks.rec, &outcome, start_time, took);
            if let Some(epoch) = outcome.ckpt_epoch {
                hooks.rec.checkpoint(start_time, epoch);
            }
            idle_pending = true;
        }
        if outcome.exit && !ctl.exit_announced.swap(true, Ordering::AcqRel) {
            ctl.end_ns.store(elapsed_ns(ctl.t0), Ordering::Release);
            // Tell everyone (including ourselves — harmless) to stop.
            for dst in ctl.topo.pes() {
                let bye = Envelope { src: pe, dst, priority: SYSTEM_PRIORITY, sent_at_ns: 0, body: MsgBody::Exit };
                ctl.agg.send_with(pe, dst, SYSTEM_PRIORITY, true, |buf| bye.encode_into(buf));
            }
            ctl.stop.store(true, Ordering::Release);
        }
        if outcome.exit {
            break;
        }
    }
    let node = bank[pe.index()].lock().unwrap_or_else(|e| e.into_inner()).take();
    let (messages, lb_rounds, migrations, rebalance, ft_epochs, ft_bytes) = node
        .as_ref()
        .map(|n| {
            (
                n.messages_processed(),
                n.lb_rounds(),
                n.migrations(),
                n.rebalance_triggers(),
                n.ft_epochs(),
                n.ft_bytes_stored(),
            )
        })
        .unwrap_or_default();
    let obs = hooks.rec.finish();
    PeResult {
        pe,
        busy,
        messages,
        lb_rounds,
        migrations,
        rebalance,
        obs,
        ft_epochs,
        ft_bytes,
        steals,
        node: if died { None } else { node },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::envelope::{ReduceData, ReduceOp};
    use crate::ids::{ElemId, EntryId};
    use crate::mapping::Mapping;
    use crate::program::LbChoice;
    use crate::wire::{WireReader, WireWriter};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    const PING: EntryId = EntryId(1);

    struct PingPong {
        rounds_left: u32,
    }

    impl Chare for PingPong {
        fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
            let peer = ElemId(1 - ctx.my_elem().0);
            if ctx.my_elem().0 == 1 {
                // responder: always reply
                ctx.send(ctx.me().array, peer, PING, vec![]);
            } else if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(ctx.me().array, peer, PING, vec![]);
            } else {
                ctx.exit();
            }
        }
    }

    fn pingpong_wall(cross: Dur, rounds: u32) -> Dur {
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, cross);
        let mut p = Program::new();
        let arr =
            p.array("pp", 2, Mapping::Block, move |_| Box::new(PingPong { rounds_left: rounds }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let engine = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default());
        let report = engine.run(p);
        report.end_time - Time::ZERO
    }

    #[test]
    fn real_delay_device_shapes_wall_time() {
        // 5 rounds * 2 crossings * 10 ms = ≥100 ms of injected latency.
        let slow = pingpong_wall(Dur::from_millis(10), 5);
        assert!(slow >= Dur::from_millis(100), "injected latency must dominate wall time, got {slow}");
        let fast = pingpong_wall(Dur::ZERO, 5);
        assert!(fast < Dur::from_millis(100), "no injected latency: quick, got {fast}");
    }

    #[test]
    fn reduction_and_broadcast_work_over_threads() {
        static SUM: Mutex<f64> = Mutex::new(0.0);
        *SUM.lock().unwrap() = 0.0;
        struct One;
        impl Chare for One {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.charge(Dur::from_micros(10));
                ctx.contribute_f64(ReduceOp::SumF64, &[1.0 + ctx.my_elem().0 as f64]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("ones", 16, Mapping::RoundRobin, |_| Box::new(One) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::F64(v) = d {
                *SUM.lock().unwrap() = v[0];
            }
            ctl.exit();
        });
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert_eq!(*SUM.lock().unwrap(), (1..=16).sum::<i32>() as f64);
        assert!(report.network.cross_messages > 0);
    }

    #[test]
    fn migration_under_threads() {
        static SUM: AtomicU64 = AtomicU64::new(0);
        SUM.store(0, Ordering::SeqCst);
        struct Mover {
            value: u64,
        }
        impl Chare for Mover {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.at_sync();
            }
            fn pack(&self, w: &mut WireWriter) {
                w.u64(self.value);
            }
            fn resume_from_sync(&mut self, ctx: &mut Ctx<'_>) {
                ctx.contribute_u64_sum(&[self.value]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(500));
        let mut p = Program::new();
        let arr = p.array_migratable(
            "movers",
            8,
            Mapping::Block,
            |e| Box::new(Mover { value: 10 + e.0 as u64 }),
            |_, r| Box::new(Mover { value: r.u64().unwrap() }),
        );
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::U64(v) = d {
                SUM.store(v[0], Ordering::SeqCst);
            }
            ctl.exit();
        });
        let cfg = RunConfig { lb: LbChoice::Rotate, ..RunConfig::default() };
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), cfg).run(p);
        assert_eq!(SUM.load(Ordering::SeqCst), (10..18).sum::<u64>());
        assert_eq!(report.migrations, 8);
        assert_eq!(report.lb_rounds, 1);
    }

    #[test]
    fn payloads_cross_real_byte_transport() {
        const ECHO: EntryId = EntryId(9);
        struct Echo;
        impl Chare for Echo {
            fn receive(&mut self, _e: EntryId, p: &[u8], ctx: &mut Ctx<'_>) {
                let mut r = WireReader::new(p);
                assert_eq!(r.str().unwrap(), "over the wire");
                assert_eq!(r.f64_vec().unwrap(), vec![2.5; 100]);
                ctx.exit();
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_micros(200));
        let mut p = Program::new();
        let arr = p.array("echo", 2, Mapping::Block, |_| Box::new(Echo) as Box<dyn Chare>);
        p.on_startup(move |ctl| {
            let mut w = WireWriter::new();
            w.str("over the wire").f64_slice(&[2.5; 100]);
            ctl.send(arr, ElemId(1), ECHO, w.finish());
        });
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), RunConfig::default()).run(p);
        assert!(report.end_time > Time::ZERO);
    }

    #[test]
    fn lossy_wan_still_computes_the_exact_reduction() {
        use mdo_netsim::FaultPlan;
        static SUM: Mutex<f64> = Mutex::new(0.0);
        *SUM.lock().unwrap() = 0.0;
        struct One;
        impl Chare for One {
            fn receive(&mut self, _e: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
                ctx.contribute_f64(ReduceOp::SumF64, &[1.0 + ctx.my_elem().0 as f64]);
            }
        }
        let topo = Topology::two_cluster(4);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(1));
        let mut p = Program::new();
        let arr = p.array("ones", 16, Mapping::RoundRobin, |_| Box::new(One) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.broadcast(arr, PING, vec![]));
        p.on_reduction(arr, |_s, d, ctl| {
            if let ReduceData::F64(v) = d {
                *SUM.lock().unwrap() = v[0];
            }
            ctl.exit();
        });
        // Drop a quarter of the WAN traffic, duplicate and reorder some
        // more, and flip bytes in a few packets: the reliable layer must
        // hide all of it from the application.
        let plan = FaultPlan::loss(0.25)
            .with_duplicate(0.1)
            .with_reorder(0.1)
            .with_corrupt(0.05)
            .with_seed(42)
            .with_rto(Dur::from_millis(20));
        let cfg = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        let report = ThreadedEngine::new(topo, ThreadedConfig::new(latency), cfg).run(p);
        assert_eq!(*SUM.lock().unwrap(), (1..=16).sum::<i32>() as f64);
        assert!(report.transport_error.is_none());
        assert!(
            report.faults.dropped + report.faults.corrupt_rejected > 0,
            "the plan injected faults: {:?}",
            report.faults
        );
        assert!(report.faults.retransmits > 0, "recovery ran: {:?}", report.faults);
    }

    #[test]
    fn total_loss_surfaces_transport_error_not_hang() {
        use mdo_netsim::FaultPlan;
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("pp", 2, Mapping::Block, |_| Box::new(PingPong { rounds_left: 2 }) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(0), PING, vec![]));
        let plan = FaultPlan::loss(1.0).with_rto(Dur::from_millis(5)).with_max_retries(2);
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_secs(10), compute_sleep: false };
        let cfg = RunConfig { fault_plan: Some(plan), ..RunConfig::default() };
        let started = Instant::now();
        let report = ThreadedEngine::new(topo, tcfg, cfg).run(p);
        let err = report.transport_error.expect("retry exhaustion must surface");
        assert_eq!(err.attempts, 3);
        assert!(started.elapsed() < Duration::from_secs(8), "engine wound down on the error, not the watchdog ceiling");
    }

    #[test]
    fn chare_panic_is_a_structured_error_not_a_process_abort() {
        // A handler that panics takes down only its PE: the engine catches
        // the unwind, winds the run down, and — with no failure plan to
        // authorize recovery — reports a structured error instead of
        // propagating the panic out of `run`.
        struct Exploder;
        impl Chare for Exploder {
            fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {
                panic!("injected chare failure");
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("boom", 2, Mapping::Block, |_| Box::new(Exploder) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_secs(10), compute_sleep: false };
        let started = Instant::now();
        let report = ThreadedEngine::new(topo, tcfg, RunConfig::default()).run(p);
        match report.unrecoverable {
            Some(mdo_netsim::UnrecoverableError::NoFailurePlan { pe }) => assert_eq!(pe, Pe(1)),
            other => panic!("expected NoFailurePlan, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(8), "engine wound down on the panic, not the watchdog");
    }

    #[test]
    fn watchdog_stops_hung_program() {
        struct Silent;
        impl Chare for Silent {
            fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {
                // Never replies, never exits: the program hangs.
            }
        }
        let topo = Topology::two_cluster(2);
        let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::ZERO);
        let mut p = Program::new();
        let arr = p.array("s", 2, Mapping::Block, |_| Box::new(Silent) as Box<dyn Chare>);
        p.on_startup(move |ctl| ctl.send(arr, ElemId(1), PING, vec![]));
        let tcfg = ThreadedConfig { latency, max_wall: Duration::from_millis(200), compute_sleep: false };
        let started = Instant::now();
        let _report = ThreadedEngine::new(topo, tcfg, RunConfig::default()).run(p);
        assert!(started.elapsed() < Duration::from_secs(5), "watchdog fired");
    }
}

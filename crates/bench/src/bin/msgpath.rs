//! msgpath: the fine-grain cross-cluster message-path microbenchmark.
//!
//! The paper's prescription — high virtualization — turns a few large
//! messages into many small ones, so the runtime's *per-message* cost is
//! what decides whether latency masking scales.  This benchmark measures
//! that cost directly at the VMI layer, with and without TRAM-style
//! aggregation:
//!
//! 1. **Throughput** — P sender PEs each push N small envelopes across the
//!    WAN chain (delay device + reliable delivery) to a peer PE on the
//!    remote cluster; we time first-send to last-receive.  Aggregation
//!    coalesces the per-pair stream into jumbo frames: fewer packets
//!    through the delay device, one ack per frame instead of one per
//!    envelope, one mailbox posting per frame.
//! 2. **Allocations** — a counting global allocator measures heap
//!    allocations per envelope on the steady-state send path.  With
//!    aggregation on, envelopes are encoded in place into the warm
//!    per-destination frame buffer, so the steady state allocates only
//!    when a frame ships (amortized ≈ 0 per envelope).
//! 3. **Masking guard** — short fig3/fig4-style simulation runs (stencil,
//!    LeanMD) with aggregation off vs on, recording per-step time and the
//!    WAN-overlap fraction, to show coalescing does not hurt the paper's
//!    latency-masking results.
//!
//! Results land in `results/BENCH_msgpath.json`.
//!
//! Usage: `msgpath [--quick] [--out PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_apps::{leanmd, stencil};
use mdo_bench::{arg_flag, arg_value, overlap_fraction};
use mdo_core::envelope::MsgBody;
use mdo_core::prelude::*;
use mdo_core::Envelope;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{AggConfig, FaultPlan, LatencyMatrix, LinkModel};
use mdo_vmi::{Aggregator, Mailbox, Packet, ReliableTransport, Transport, TransportConfig};

/// Global-allocator shim that counts every allocation and reallocation —
/// how "zero per-envelope allocations" is *measured*, not asserted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAYLOAD: usize = 32;

fn small_envelope(src: Pe, dst: Pe, n: u64) -> Envelope {
    Envelope {
        src,
        dst,
        priority: 0,
        sent_at_ns: n,
        body: MsgBody::App {
            target: ObjKey { array: ArrayId(1), elem: ElemId(n as u32) },
            entry: EntryId(7),
            payload: bytes::Bytes::from(vec![0xAB; PAYLOAD]),
        },
    }
}

/// Build the full threaded-engine WAN chain: raw transport (delay device)
/// → reliable delivery (seq/ack/retransmit) → aggregation.
fn chain(pes: u32, wan: Dur, agg: Option<AggConfig>) -> Arc<Aggregator> {
    let topo = Topology::two_cluster(pes);
    let latency = LatencyMatrix::uniform(&topo, Dur::ZERO, wan);
    let transport = Transport::new(TransportConfig::new(topo, latency));
    // Reliable delivery armed exactly as the threaded engine arms it for
    // WAN runs; RTO far above the RTT so the clean path stays clean.
    let rt = ReliableTransport::with_plan(transport, FaultPlan::default().with_rto(Dur::from_millis(500)));
    match agg {
        Some(cfg) => Aggregator::with_policy(rt, cfg),
        None => Aggregator::passthrough(rt),
    }
}

struct ThroughputOut {
    envelopes: u64,
    wall_s: f64,
    env_per_s: f64,
    frames: u64,
    bytes_saved: u64,
}

/// P senders blast N envelopes each at their cross-cluster peer; wall
/// time runs from first send to last delivery.
fn throughput(senders: u32, n: u64, agg_cfg: Option<AggConfig>) -> ThroughputOut {
    let agg = chain(senders * 2, Dur::from_millis(1), agg_cfg);
    let t0 = Instant::now();
    let mut rx = Vec::new();
    for i in 0..senders {
        let agg = Arc::clone(&agg);
        rx.push(std::thread::spawn(move || {
            let pe = Pe(senders + i);
            let mut got = 0u64;
            while got < n {
                let Some(pkt) = agg.recv_timeout(pe, Duration::from_secs(30)) else { break };
                let env = Envelope::decode_shared(&pkt.payload).expect("decodable envelope");
                assert_eq!(env.dst, pe);
                got += 1;
            }
            got
        }));
    }
    let mut tx = Vec::new();
    for i in 0..senders {
        let agg = Arc::clone(&agg);
        tx.push(std::thread::spawn(move || {
            let (src, dst) = (Pe(i), Pe(senders + i));
            for j in 0..n {
                let env = small_envelope(src, dst, j);
                agg.send_with(src, dst, env.priority, false, |buf| env.encode_into(buf));
            }
            // End of the burst: ship whatever is still buffered (the
            // engines do the same at quiescence/AtSync/exit).
            agg.flush(src);
        }));
    }
    for t in tx {
        t.join().expect("sender");
    }
    let delivered: u64 = rx.into_iter().map(|t| t.join().expect("receiver")).sum();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(delivered, senders as u64 * n, "every envelope delivered exactly once");
    let stats = agg.stats();
    agg.shutdown();
    agg.reliable().shutdown();
    agg.inner().shutdown();
    ThroughputOut {
        envelopes: delivered,
        wall_s: wall,
        env_per_s: delivered as f64 / wall,
        frames: stats.frames_sent,
        bytes_saved: stats.bytes_saved,
    }
}

/// Allocations per envelope on the send path, measured over `n` sends
/// after a warm-up phase.  With aggregation on, the frame buffer is warm
/// and no flush fires inside the window, so the expected count is ~0.
fn allocs_per_envelope(agg_cfg: Option<AggConfig>, warmup: u64, n: u64) -> f64 {
    let agg = chain(2, Dur::from_millis(1), agg_cfg);
    let (src, dst) = (Pe(0), Pe(1));
    for j in 0..warmup {
        let env = small_envelope(src, dst, j);
        agg.send_with(src, dst, env.priority, false, |buf| env.encode_into(buf));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for j in 0..n {
        let env = small_envelope(src, dst, warmup + j);
        agg.send_with(src, dst, env.priority, false, |buf| env.encode_into(buf));
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    agg.flush(src);
    agg.shutdown();
    agg.reliable().shutdown();
    agg.inner().shutdown();
    // Each send constructs one Envelope (its payload Bytes allocates) —
    // that cost is identical in both modes and belongs to the *caller*;
    // subtract it so the number isolates the runtime's send path.
    const CALLER_ALLOCS_PER_ENV: u64 = 2; // Vec payload + Arc in Bytes::from
    (delta.saturating_sub(CALLER_ALLOCS_PER_ENV * n)) as f64 / n as f64
}

struct IntraRow {
    senders: u32,
    /// Senders use `post_many` in frame-sized batches — the engine's jumbo
    /// frame unpack path, one ring reservation per batch.
    env_per_s_batched: f64,
    /// Senders use one `post` per envelope — the plain fine-grain path.
    env_per_s_single: f64,
}

/// One timed run: `senders` producer threads blast `total` 32-byte packets
/// into a single consumer's mailbox — the exact structure every
/// intra-cluster send lands in.  The consumer drains with `take_many`.
fn intra_run(senders: u32, total: u64, batch: usize) -> f64 {
    let mb = Arc::new(Mailbox::new());
    let payload = bytes::Bytes::from(vec![0xCD; PAYLOAD]);
    let per = total / senders as u64;
    let total = per * senders as u64;
    let t0 = Instant::now();
    let consumer = {
        let mb = Arc::clone(&mb);
        std::thread::spawn(move || {
            let mut buf = Vec::with_capacity(4096);
            let mut got = 0u64;
            while got < total {
                let n = mb.take_many(&mut buf, 4096) as u64;
                if n == 0 {
                    std::thread::yield_now();
                    continue;
                }
                got += n;
                buf.clear();
            }
            got
        })
    };
    let tx: Vec<_> = (0..senders)
        .map(|i| {
            let mb = Arc::clone(&mb);
            let payload = payload.clone();
            std::thread::spawn(move || {
                let src = Pe(i + 1);
                let mut left = per;
                let mut since_yield = 0u64;
                while left > 0 {
                    let chunk = (batch as u64).min(left);
                    left -= chunk;
                    if batch == 1 {
                        mb.post(Packet::new(src, Pe(0), payload.clone()));
                    } else {
                        mb.post_many((0..chunk).map(|_| Packet::new(src, Pe(0), payload.clone())));
                    }
                    // Real producers do work between bursts (the engine
                    // handles a message, builds a frame); a zero-work tight
                    // loop on few cores just starves the consumer and
                    // measures scheduler pathology, so give it a turn.
                    since_yield += chunk;
                    if since_yield >= 256 {
                        since_yield = 0;
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for t in tx {
        t.join().expect("sender");
    }
    let got = consumer.join().expect("consumer");
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(got, total, "every envelope delivered exactly once");
    mb.close();
    total as f64 / wall
}

/// The sender-count scaling sweep: fixed total envelopes split across
/// 1/2/4/8/16 producers.  With per-sender rings there is no shared lock on
/// the post path, so env/s must stay flat as senders multiply — this is
/// the ROADMAP's "flat with sender count" claim, measured.
fn intra_node_sweep(total: u64) -> Vec<IntraRow> {
    [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&senders| IntraRow {
            senders,
            env_per_s_batched: intra_run(senders, total, 256),
            env_per_s_single: intra_run(senders, total, 1),
        })
        .collect()
}

struct MaskRow {
    app: &'static str,
    lat_ms: u64,
    ms_per_step_off: f64,
    ms_per_step_on: f64,
    overlap_off: f64,
    overlap_on: f64,
}

fn mask_cfg(agg: Option<AggConfig>) -> RunConfig {
    RunConfig { obs: Some(ObsConfig::new()), agg, ..RunConfig::default() }
}

/// fig3/fig4-style guard: per-step time and overlap fraction with the
/// batched-release sim model off vs on.
fn masking_guard(quick: bool) -> Vec<MaskRow> {
    let agg_on = Some(AggConfig::default());
    let steps = if quick { 3 } else { 8 };
    let mut rows = Vec::new();
    for lat in [4u64, 16] {
        let net = || NetworkModel::two_cluster_sweep(8, Dur::from_millis(lat));
        let cfg = || stencil::StencilConfig::paper(64, steps);
        let off = stencil::run_sim(cfg(), net(), mask_cfg(None));
        let on = stencil::run_sim(cfg(), net(), mask_cfg(agg_on));
        rows.push(MaskRow {
            app: "stencil_8pe_64obj",
            lat_ms: lat,
            ms_per_step_off: off.ms_per_step,
            ms_per_step_on: on.ms_per_step,
            overlap_off: overlap_fraction(&off.report),
            overlap_on: overlap_fraction(&on.report),
        });
    }
    let lat = 16u64;
    let md = || leanmd::MdConfig::paper(if quick { 2 } else { 4 });
    let net = || NetworkModel::two_cluster_sweep(8, Dur::from_millis(lat));
    let off = leanmd::run_sim(md(), net(), mask_cfg(None));
    let on = leanmd::run_sim(md(), net(), mask_cfg(agg_on));
    rows.push(MaskRow {
        app: "leanmd_8pe",
        lat_ms: lat,
        ms_per_step_off: off.ms_per_step,
        ms_per_step_on: on.ms_per_step,
        overlap_off: overlap_fraction(&off.report),
        overlap_on: overlap_fraction(&on.report),
    });
    // The fine-grain regime aggregation exists for: 1024 objects on 8 PEs
    // (64×64-cell blocks, ~512-byte ghosts) over a WAN whose per-message
    // software cost is modelled — many small messages is exactly where the
    // paper's prescription meets per-message overhead.
    let lat = 8u64;
    let wan = LinkModel::gbit(1.0, Dur::from_micros(30));
    let net = || NetworkModel::two_cluster_contended(8, Dur::from_millis(lat), wan);
    let cfg = || stencil::StencilConfig::paper(1024, steps);
    let off = stencil::run_sim(cfg(), net(), mask_cfg(None));
    let on = stencil::run_sim(cfg(), net(), mask_cfg(agg_on));
    rows.push(MaskRow {
        app: "stencil_8pe_1024obj_contended",
        lat_ms: lat,
        ms_per_step_off: off.ms_per_step,
        ms_per_step_on: on.ms_per_step,
        overlap_off: overlap_fraction(&off.report),
        overlap_on: overlap_fraction(&on.report),
    });
    rows
}

struct SweepRow {
    objects: usize,
    per_pe: usize,
    ms_per_step_off: f64,
    ms_per_step_on: f64,
    frames_on: u64,
    coalesced_on: u64,
}

/// The fine-grain sweep: runtime overhead vs virtualization ratio.  As the
/// paper's prescription raises objects/PE, ghost messages shrink and
/// multiply; on a WAN with per-message software cost that is where
/// aggregation pays (or, below the knee, where it must at least not hurt).
fn fine_grain_sweep(quick: bool) -> Vec<SweepRow> {
    let pes = 8u32;
    let steps = if quick { 3 } else { 6 };
    let wan =
        || NetworkModel::two_cluster_contended(pes, Dur::from_millis(8), LinkModel::gbit(1.0, Dur::from_micros(30)));
    let objects: &[usize] = if quick { &[64, 1024] } else { &[64, 256, 1024] };
    let mut rows = Vec::new();
    for &objs in objects {
        let cfg = || stencil::StencilConfig::paper(objs, steps);
        let off = stencil::run_sim(cfg(), wan(), mask_cfg(None));
        let on = stencil::run_sim(cfg(), wan(), mask_cfg(Some(AggConfig::default())));
        let ctr = |c: mdo_obs::Ctr| on.report.obs.as_ref().map(|o| o.counters.get(c)).unwrap_or(0);
        rows.push(SweepRow {
            objects: objs,
            per_pe: objs / pes as usize,
            ms_per_step_off: off.ms_per_step,
            ms_per_step_on: on.ms_per_step,
            frames_on: ctr(mdo_obs::Ctr::FramesSent),
            coalesced_on: ctr(mdo_obs::Ctr::EnvelopesCoalesced),
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = arg_flag(&args, "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_msgpath.json".to_string());
    let senders: u32 = 4;
    let n: u64 = if quick { 512 } else { 4096 };

    println!("msgpath: {senders} sender PEs x {n} envelopes ({PAYLOAD}-byte payloads) across a 1 ms WAN\n");

    let off = throughput(senders, n, None);
    println!("aggregation off: {:>10.0} env/s  ({} envelopes in {:.3} s)", off.env_per_s, off.envelopes, off.wall_s);
    let on = throughput(senders, n, Some(AggConfig::default()));
    println!(
        "aggregation on:  {:>10.0} env/s  ({} envelopes in {:.3} s, {} frames, {} header bytes saved)",
        on.env_per_s, on.envelopes, on.wall_s, on.frames, on.bytes_saved
    );
    let speedup = on.env_per_s / off.env_per_s;
    println!("speedup: {speedup:.2}x\n");

    // Steady-state allocation census.  Window sized to stay below the
    // flush threshold so it sees only the in-place encode path.
    let big = AggConfig::default().with_max_bytes(64 << 20).with_max_delay(Dur::from_millis(10_000));
    let alloc_on = allocs_per_envelope(Some(big), 2048, 1024);
    let alloc_off = allocs_per_envelope(None, 2048, 1024);
    println!("send-path allocations per envelope: off={alloc_off:.3} on={alloc_on:.3}");

    let intra_total: u64 = if quick { 400_000 } else { 4_000_000 };
    let intra = intra_node_sweep(intra_total);
    println!("\nintra-node sender scaling ({intra_total} x {PAYLOAD}-byte envelopes into one mailbox):");
    for r in &intra {
        println!(
            "  {:>2} senders: {:>12.0} env/s batched   {:>12.0} env/s single-post",
            r.senders, r.env_per_s_batched, r.env_per_s_single
        );
    }

    let mask = masking_guard(quick);
    println!("\nmasking guard (sim, aggregation off vs on):");
    for r in &mask {
        println!(
            "  {:<30} {:>3} ms: {:>8.3} -> {:>8.3} ms/step   overlap {:.2} -> {:.2}",
            r.app, r.lat_ms, r.ms_per_step_off, r.ms_per_step_on, r.overlap_off, r.overlap_on
        );
    }

    let sweep = fine_grain_sweep(quick);
    println!("\nfine-grain sweep (stencil, 8 PEs, contended 1 Gbit WAN + 30 us/msg, aggregation off vs on):");
    for r in &sweep {
        println!(
            "  {:>4} objects ({:>3}/PE): {:>8.3} -> {:>8.3} ms/step   {} envelopes in {} frames",
            r.objects, r.per_pe, r.ms_per_step_off, r.ms_per_step_on, r.coalesced_on, r.frames_on
        );
    }

    let intra_json: Vec<String> = intra
        .iter()
        .map(|r| {
            format!(
                "    {{\"senders\": {}, \"env_per_s_batched\": {:.0}, \"env_per_s_single\": {:.0}}}",
                r.senders, r.env_per_s_batched, r.env_per_s_single
            )
        })
        .collect();
    let mask_json: Vec<String> = mask
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"latency_ms\": {}, \"ms_per_step_off\": {:.3}, \"ms_per_step_on\": {:.3}, \
                 \"overlap_off\": {:.4}, \"overlap_on\": {:.4}}}",
                r.app, r.lat_ms, r.ms_per_step_off, r.ms_per_step_on, r.overlap_off, r.overlap_on
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"objects\": {}, \"objects_per_pe\": {}, \"ms_per_step_off\": {:.3}, \
                 \"ms_per_step_on\": {:.3}, \"frames_on\": {}, \"envelopes_coalesced_on\": {}}}",
                r.objects, r.per_pe, r.ms_per_step_off, r.ms_per_step_on, r.frames_on, r.coalesced_on
            )
        })
        .collect();
    // Acceptance thresholds for the full run, checked before anything is
    // written so a failing run leaves `results/` as it was.  `--quick` is a
    // smoke test (tiny bursts on shared CI runners make wall-clock ratios
    // noisy).
    if !quick {
        assert!(speedup >= 2.0, "aggregation must at least double fine-grain WAN throughput (got {speedup:.2}x)");
        assert!(alloc_on < 0.05, "steady-state send path must not allocate per envelope (got {alloc_on:.3})");
        // The ring-mailbox acceptance bar: ≥10M env/s intra-node on 32-B
        // payloads, and flat (±20%) as senders scale 1→8 — per-sender
        // rings mean there is no shared lock to contend on.
        let peak = intra.iter().map(|r| r.env_per_s_batched).fold(0.0f64, f64::max);
        assert!(peak >= 10_000_000.0, "intra-node path must sustain >=10M env/s (got {peak:.0})");
        let upto8: Vec<f64> = intra.iter().filter(|r| r.senders <= 8).map(|r| r.env_per_s_batched).collect();
        let (lo, hi) = (upto8.iter().copied().fold(f64::MAX, f64::min), upto8.iter().copied().fold(0.0, f64::max));
        assert!(lo >= 0.8 * hi, "env/s must stay flat (+/-20%) from 1 to 8 senders (min {lo:.0}, max {hi:.0})");
    }

    let json = format!(
        "{{\n  \"schema\": 2,\n  \"quick\": {quick},\n  \"payload_bytes\": {PAYLOAD},\n  \"senders\": {senders},\n  \
         \"envelopes_per_sender\": {n},\n  \"wan_one_way_ms\": 1,\n  \"agg_off\": {{\"env_per_s\": {:.0}, \
         \"wall_s\": {:.4}}},\n  \"agg_on\": {{\"env_per_s\": {:.0}, \"wall_s\": {:.4}, \"frames\": {}, \
         \"envelopes_per_frame\": {:.1}, \"header_bytes_saved\": {}}},\n  \"speedup\": {speedup:.3},\n  \
         \"send_path_allocs_per_envelope\": {{\"agg_off\": {alloc_off:.3}, \"agg_on\": {alloc_on:.3}}},\n  \
         \"intra_node_total_envelopes\": {intra_total},\n  \"env_per_s_by_senders\": [\n{}\n  ],\n  \
         \"masking_guard\": [\n{}\n  ],\n  \"fine_grain_sweep\": [\n{}\n  ]\n}}\n",
        off.env_per_s,
        off.wall_s,
        on.env_per_s,
        on.wall_s,
        on.frames,
        on.envelopes as f64 / on.frames.max(1) as f64,
        on.bytes_saved,
        intra_json.join(",\n"),
        mask_json.join(",\n"),
        sweep_json.join(",\n"),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, &json).expect("write results json");
    println!("\nwrote {out_path}");
}

//! The delay device: the heart of the paper's simulated Grid environment.
//!
//! §5.1: *"messages are intercepted by the delay device which delays the
//! message by a pre-defined amount of time before passing it to the network
//! device driver used to communicate over the 'wide area'."*
//!
//! Implementation: a background timer thread owns a deadline-ordered heap.
//! `handle` computes the packet's release deadline from a [`LatencyMatrix`]
//! (or holds everything for one fixed duration) and parks the packet plus
//! its downstream [`Forwarder`]; the timer thread forwards each packet when
//! real wall-clock time reaches its deadline.  Deadlines are computed from
//! the *send* instant, so chain traversal overhead does not inflate the
//! injected latency.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdo_netsim::{Dur, LatencyMatrix, Topology};
use parking_lot::{Condvar, Mutex};

use crate::device::{Device, Forwarder};
use crate::packet::Packet;

struct Pending {
    deadline: Instant,
    seq: u64,
    pkt: Packet,
    next: Arc<dyn Forwarder>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.deadline.cmp(&self.deadline).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Shared {
    heap: Mutex<BinaryHeap<Pending>>,
    cond: Condvar,
    shutdown: Mutex<bool>,
    seq: Mutex<u64>,
}

/// How the delay for each packet is chosen.
enum Policy {
    /// Same fixed delay for every packet.
    Fixed(Duration),
    /// Per-pair delay from a latency matrix over a topology.
    Matrix { topo: Topology, matrix: LatencyMatrix },
}

/// A device that holds packets for a configured latency before forwarding.
pub struct DelayDevice {
    shared: Arc<Shared>,
    policy: Policy,
    timer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DelayDevice {
    fn start(policy: Policy) -> Arc<Self> {
        let shared = Arc::new(Shared {
            heap: Mutex::new(BinaryHeap::new()),
            cond: Condvar::new(),
            shutdown: Mutex::new(false),
            seq: Mutex::new(0),
        });
        let dev = Arc::new(DelayDevice { shared: Arc::clone(&shared), policy, timer: Mutex::new(None) });
        let handle = std::thread::Builder::new()
            .name("vmi-delay-device".into())
            .spawn(move || timer_loop(shared))
            .expect("spawn delay device timer thread");
        *dev.timer.lock() = Some(handle);
        dev
    }

    /// A delay device that holds every packet for `delay`.
    pub fn fixed(delay: Duration) -> Arc<Self> {
        Self::start(Policy::Fixed(delay))
    }

    /// A delay device that injects the per-pair latency of `matrix` over
    /// `topo` — the exact configuration of the paper's artificial-latency
    /// experiments.  Zero-latency pairs are forwarded inline without
    /// touching the timer thread.
    pub fn from_matrix(topo: Topology, matrix: LatencyMatrix) -> Arc<Self> {
        Self::start(Policy::Matrix { topo, matrix })
    }

    fn delay_for(&self, pkt: &Packet) -> Duration {
        match &self.policy {
            Policy::Fixed(d) => *d,
            Policy::Matrix { topo, matrix } => matrix.base_latency(topo, pkt.src, pkt.dst).to_std(),
        }
    }

    /// Packets currently parked (for diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.shared.heap.lock().len()
    }

    /// Stop the timer thread, forwarding anything still parked immediately.
    pub fn shutdown(&self) {
        {
            // Set the flag under the heap lock: the timer checks it and
            // then waits while holding that lock, so it either sees the
            // flag or is already waiting when the notify below arrives.
            let _heap = self.shared.heap.lock();
            *self.shared.shutdown.lock() = true;
        }
        self.shared.cond.notify_all();
        if let Some(h) = self.timer.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DelayDevice {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn timer_loop(shared: Arc<Shared>) {
    loop {
        let mut heap = shared.heap.lock();
        if *shared.shutdown.lock() {
            // Flush: forward everything immediately so no packet is lost.
            let leftovers: Vec<Pending> = heap.drain().collect();
            drop(heap);
            let mut rest: Vec<Pending> = leftovers;
            rest.sort_by_key(|p| (p.deadline, p.seq));
            for p in rest {
                p.next.deliver(p.pkt);
            }
            return;
        }
        let now = Instant::now();
        // Forward everything due.
        let mut due = Vec::new();
        while let Some(head) = heap.peek() {
            if head.deadline <= now {
                due.push(heap.pop().expect("peeked entry exists"));
            } else {
                break;
            }
        }
        if !due.is_empty() {
            drop(heap);
            for p in due {
                p.next.deliver(p.pkt);
            }
            continue;
        }
        match heap.peek().map(|p| p.deadline) {
            Some(deadline) => {
                shared.cond.wait_until(&mut heap, deadline);
            }
            None => {
                shared.cond.wait(&mut heap);
            }
        }
    }
}

impl Device for DelayDevice {
    fn name(&self) -> &str {
        "delay"
    }

    fn handle(&self, pkt: Packet, next: Arc<dyn Forwarder>) {
        let delay = self.delay_for(&pkt);
        if delay.is_zero() {
            next.deliver(pkt);
            return;
        }
        let deadline = Instant::now() + delay;
        let seq = {
            let mut s = self.shared.seq.lock();
            let v = *s;
            *s += 1;
            v
        };
        self.shared.heap.lock().push(Pending { deadline, seq, pkt, next });
        self.shared.cond.notify_one();
    }
}

/// Convenience: a [`Dur`]-based fixed delay device.
pub fn fixed_delay(d: Dur) -> Arc<DelayDevice> {
    DelayDevice::fixed(d.to_std())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FnForwarder;
    use bytes::Bytes;
    use mdo_netsim::Pe;

    type TimedDeliveries = Arc<Mutex<Vec<(u8, Instant)>>>;

    fn sink_with_times() -> (TimedDeliveries, Arc<dyn Forwarder>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let sink: Arc<dyn Forwarder> =
            Arc::new(FnForwarder(move |p: Packet| out2.lock().push((p.payload[0], Instant::now()))));
        (out, sink)
    }

    #[test]
    fn fixed_delay_holds_packet() {
        let dev = DelayDevice::fixed(Duration::from_millis(30));
        let (out, sink) = sink_with_times();
        let t0 = Instant::now();
        dev.handle(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[7])), sink);
        // Not delivered immediately.
        std::thread::sleep(Duration::from_millis(5));
        assert!(out.lock().is_empty());
        // Delivered after the deadline.
        while out.lock().is_empty() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let got = out.lock();
        assert_eq!(got.len(), 1);
        assert!(got[0].1.duration_since(t0) >= Duration::from_millis(29));
    }

    #[test]
    fn zero_delay_forwards_inline() {
        let dev = DelayDevice::fixed(Duration::ZERO);
        let (out, sink) = sink_with_times();
        dev.handle(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[1])), sink);
        assert_eq!(out.lock().len(), 1, "no timer round-trip for zero delay");
    }

    #[test]
    fn matrix_delays_cross_cluster_only() {
        let topo = Topology::two_cluster(2);
        let matrix = LatencyMatrix::uniform(&topo, Dur::ZERO, Dur::from_millis(40));
        let dev = DelayDevice::from_matrix(topo, matrix);
        let (out, sink) = sink_with_times();
        let t0 = Instant::now();
        // Intra-PE message: instant.  Cross-cluster: delayed.
        dev.handle(Packet::new(Pe(0), Pe(0), Bytes::copy_from_slice(&[1])), Arc::clone(&sink));
        dev.handle(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[2])), sink);
        assert_eq!(out.lock().len(), 1);
        while out.lock().len() < 2 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let got = out.lock();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0, 2);
        assert!(got[1].1.duration_since(t0) >= Duration::from_millis(39));
    }

    #[test]
    fn ordering_preserved_for_equal_delays() {
        let dev = DelayDevice::fixed(Duration::from_millis(10));
        let (out, sink) = sink_with_times();
        for i in 0..20u8 {
            dev.handle(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[i])), Arc::clone(&sink));
        }
        let t0 = Instant::now();
        while out.lock().len() < 20 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let tags: Vec<u8> = out.lock().iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, (0..20).collect::<Vec<u8>>(), "FIFO for equal deadlines");
    }

    #[test]
    fn shutdown_flushes_pending() {
        let dev = DelayDevice::fixed(Duration::from_secs(60));
        let (out, sink) = sink_with_times();
        dev.handle(Packet::new(Pe(0), Pe(1), Bytes::copy_from_slice(&[5])), sink);
        assert_eq!(dev.pending(), 1);
        dev.shutdown();
        assert_eq!(out.lock().len(), 1, "pending packet flushed on shutdown");
    }

    #[test]
    fn shutdown_racing_the_timers_first_wait_never_hangs() {
        // Shut down 0–40 µs after start, so some shutdowns land between
        // the timer's flag check and its wait; a lost wakeup there hangs
        // the join for good.
        let (tx, rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for i in 0..20_000u32 {
                let dev = DelayDevice::fixed(Duration::from_millis(1));
                let t = Instant::now();
                while t.elapsed() < Duration::from_nanos(u64::from(i % 400) * 100) {
                    std::hint::spin_loop();
                }
                dev.shutdown();
            }
            let _ = tx.send(());
        });
        assert!(rx.recv_timeout(Duration::from_secs(60)).is_ok(), "a shutdown wakeup was lost");
        cycles.join().expect("start/shutdown cycles");
    }
}

//! Bulk-synchronous stencil baseline (AMPI, one rank per PE).
//!
//! §5.3 of the paper: *"with a round trip latency of 512 ms (0.5
//! seconds), many algorithms would have increased their per-step time
//! from 4 to 4.5 seconds at least."*  This module is that "many
//! algorithms" strawman: a classic MPI-style 1-D stencil where every rank
//! blocks on its halo exchange and then joins a global all-reduce **every
//! step**.  With one rank per PE there is nothing to overlap with, so the
//! per-step time grows by roughly one round trip per step as soon as the
//! latency is nonzero — the quantitative foil for the message-driven
//! runs.

use std::sync::{Arc, Mutex};

use mdo_ampi::{build_ampi_program, AmpiOp, RankBody};
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Time;

use super::seq;
use super::StencilCost;

/// Halo tags.
const TO_PREV: i32 = 1;
const TO_NEXT: i32 = 2;

/// Configuration for the BSP baseline.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Mesh side length.
    pub mesh: usize,
    /// Ranks (= PEs; rows are split evenly, so `ranks` must divide mesh).
    pub ranks: u32,
    /// Steps.
    pub steps: u32,
    /// Real math or cost-model only.
    pub compute: bool,
    /// Cost model (same scale as the message-driven stencil).
    pub cost: StencilCost,
}

/// Outcome of a BSP run.
#[derive(Debug)]
pub struct BspOutcome {
    /// Mean milliseconds per step.
    pub ms_per_step: f64,
    /// Per-rank row-strip checksums (sum of owned cells), rank order.
    pub checksums: Vec<f64>,
    /// Engine report.
    pub report: RunReport,
}

/// Run the bulk-synchronous baseline under the simulation engine.
pub fn run_sim(cfg: BspConfig, net: NetworkModel, run_cfg: RunConfig) -> BspOutcome {
    assert_eq!(cfg.mesh % cfg.ranks as usize, 0, "ranks must divide the mesh rows");
    let checksums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; cfg.ranks as usize]));
    let sums = Arc::clone(&checksums);
    let cfg2 = cfg.clone();
    let body: RankBody = Arc::new(move |rank| {
        let cfg = cfg2.clone();
        let sums = Arc::clone(&sums);
        Box::pin(async move {
            let n = cfg.mesh;
            let p = cfg.ranks;
            let me = rank.rank();
            let rows = n / p as usize;
            let r0 = me as usize * rows; // my first global row

            // rows+2 working rows of n+2 cells: halo rows above and below,
            // and a zero column on each side (the mesh's left/right
            // boundary).  The halo rows of the first and last rank are
            // never received, so they stay 0 too.
            let w = n + 2;
            let mut grid = vec![0.0f64; (rows + 2) * w];
            let mut next = vec![0.0f64; (rows + 2) * w];
            if cfg.compute {
                seq::fill_initial(&mut grid[w + 1..], w, r0, 0, rows, n, n);
            }
            let interior = |r: usize| r * w + 1..r * w + 1 + n;
            let pack = |row: &[f64]| {
                let mut out = Vec::with_capacity(row.len() * 8);
                for v in row {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            };
            let unpack = |bytes: &[u8], dst: &mut [f64]| {
                for (i, c) in bytes.chunks_exact(8).enumerate() {
                    dst[i] = f64::from_le_bytes(c.try_into().expect("8 bytes"));
                }
            };
            for _step in 0..cfg.steps {
                // Blocking halo exchange with the neighbours.
                if me > 0 {
                    rank.send(me - 1, TO_PREV, pack(&grid[interior(1)]));
                }
                if me + 1 < p {
                    rank.send(me + 1, TO_NEXT, pack(&grid[interior(rows)]));
                }
                if me > 0 {
                    let data = rank.recv_from(me - 1, TO_NEXT).await;
                    unpack(&data, &mut grid[interior(0)]);
                }
                if me + 1 < p {
                    let data = rank.recv_from(me + 1, TO_PREV).await;
                    unpack(&data, &mut grid[interior(rows + 1)]);
                }
                // Compute.
                if cfg.compute {
                    seq::sweep(&grid, &mut next, w, rows, n);
                    std::mem::swap(&mut grid, &mut next);
                }
                rank.charge(cfg.cost.step_cost(rows * n, 2));
                // The lockstep part: a global reduction every step.
                let _ = rank.allreduce_f64(&[1.0], AmpiOp::Sum).await;
            }
            let sum: f64 = (1..=rows).flat_map(|r| &grid[interior(r)]).sum();
            sums.lock().expect("sums lock")[me as usize] = sum;
        })
    });
    let program = build_ampi_program(cfg.ranks, Mapping::Block, body);
    let report = SimEngine::new(net, run_cfg).run(program);
    let total = report.end_time - Time::ZERO;
    let checksums = checksums.lock().expect("sums lock").clone();
    BspOutcome { ms_per_step: total.as_millis_f64() / cfg.steps as f64, checksums, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg(mesh: usize, ranks: u32, steps: u32, compute: bool) -> BspConfig {
        BspConfig {
            mesh,
            ranks,
            steps,
            compute,
            cost: StencilCost { ns_per_cell: 34.0, msg_overhead: Dur::from_micros(40), cache_effect: false },
        }
    }

    #[test]
    fn matches_sequential_reference() {
        let c = cfg(32, 4, 6, true);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(1));
        let out = run_sim(c.clone(), net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(32);
        reference.run(6);
        for (r, got) in out.checksums.iter().enumerate() {
            // Same flat row-major accumulation order as the rank itself.
            let mut want = 0.0f64;
            for row in r * 8..(r + 1) * 8 {
                for c in 0..32 {
                    want += reference.get(row, c);
                }
            }
            assert_eq!(*got, want, "rank {r} strip checksum");
        }
    }

    #[test]
    fn latency_hits_every_step() {
        // BSP with 1 rank/PE: per-step time grows by ≈ a round trip as
        // latency rises — no masking.
        let run = |lat_ms: u64| {
            let c = cfg(512, 4, 8, false);
            let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(lat_ms));
            run_sim(c, net, RunConfig::default()).ms_per_step
        };
        let base = run(0);
        let slow = run(16);
        assert!(slow - base > 16.0, "each step pays at least one-way latency: {base:.3} -> {slow:.3}");
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let c = cfg(16, 1, 3, true);
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let out = run_sim(c, net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(16);
        reference.run(3);
        let mut want = 0.0f64;
        for r in 0..16 {
            for c in 0..16 {
                want += reference.get(r, c);
            }
        }
        assert_eq!(out.checksums[0], want);
    }
}

//! The AMPI claim, demonstrated: a blocking-style MPI stencil that masks
//! Grid latency purely by running **more ranks than processors**.
//!
//! Paper §2.1/§6: *"through the use of Adaptive MPI, any MPI application
//! can take advantage of our techniques"* — the application keeps its
//! ordinary blocking send/recv structure; only the rank count changes.
//! This module is a 2-D block decomposition of the same Jacobi problem,
//! written exactly as an MPI programmer would (exchange four halos, then
//! compute), with **no global barrier** per step.  Run it with one rank
//! per PE and it behaves like classic MPI (latency exposed); run it with
//! 16 ranks per PE and the AMPI layer interleaves suspended ranks to mask
//! the latency — the same code.
//!
//! Validated bit-for-bit against [`super::seq::SeqStencil`].

use std::sync::{Arc, Mutex};

use mdo_ampi::{build_ampi_program, RankBody};
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::{Mapping, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Time;

use super::seq;
use super::StencilCost;

/// Halo tags, one per direction of travel.
const TO_UP: i32 = 1; // data travelling upward (to the block above)
const TO_DOWN: i32 = 2;
const TO_LEFT: i32 = 3;
const TO_RIGHT: i32 = 4;
/// Final checksum gather.
const SUM: i32 = 9;

/// Configuration for the AMPI 2-D stencil.
#[derive(Clone, Debug)]
pub struct Ampi2dConfig {
    /// Mesh side length.
    pub mesh: usize,
    /// Number of ranks; a perfect square whose root divides `mesh`.
    pub ranks: u32,
    /// Time steps.
    pub steps: u32,
    /// Real math (validation) or cost-model only.
    pub compute: bool,
    /// Cost model (same scale as the chare stencil).
    pub cost: StencilCost,
}

impl Ampi2dConfig {
    /// Rank-blocks per side.
    pub fn k(&self) -> usize {
        let k = (self.ranks as f64).sqrt().round() as usize;
        assert_eq!(k * k, self.ranks as usize, "ranks must be a perfect square");
        assert_eq!(self.mesh % k, 0, "sqrt(ranks) must divide the mesh");
        k
    }
}

/// Outcome of a run.
#[derive(Debug)]
pub struct Ampi2dOutcome {
    /// Mean milliseconds per step.
    pub ms_per_step: f64,
    /// Per-rank block sums (row-major block order; zeros unless compute).
    pub block_sums: Vec<f64>,
    /// Engine report.
    pub report: RunReport,
}

fn pack(row: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 8);
    for v in row {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn unpack(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

/// Run under the simulation engine.
pub fn run_sim(cfg: Ampi2dConfig, net: NetworkModel, run_cfg: RunConfig) -> Ampi2dOutcome {
    let k = cfg.k();
    let b = cfg.mesh / k;
    let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; cfg.ranks as usize]));
    let sums_body = Arc::clone(&sums);
    let cfg2 = cfg.clone();

    let body: RankBody = Arc::new(move |rank| {
        let cfg = cfg2.clone();
        let sums = Arc::clone(&sums_body);
        Box::pin(async move {
            let k = cfg.k();
            let b = cfg.mesh / k;
            let me = rank.rank() as usize;
            let (bi, bj) = (me / k, me % k);
            let rank_of = |i: usize, j: usize| (i * k + j) as u32;
            let up = (bi > 0).then(|| rank_of(bi - 1, bj));
            let down = (bi + 1 < k).then(|| rank_of(bi + 1, bj));
            let left = (bj > 0).then(|| rank_of(bi, bj - 1));
            let right = (bj + 1 < k).then(|| rank_of(bi, bj + 1));
            let n_neighbors = [up, down, left, right].iter().filter(|n| n.is_some()).count();

            // (b+2)^2 working block with a ghost ring (zeros = boundary).
            let w = b + 2;
            let mut grid = vec![0.0f64; w * w];
            let mut next = vec![0.0f64; w * w];
            if cfg.compute {
                seq::fill_initial(&mut grid[w + 1..], w, bi * b, bj * b, b, b, cfg.mesh);
            }
            let col = |g: &Vec<f64>, c: usize| -> Vec<f64> { (1..=b).map(|r| g[r * w + c]).collect() };

            for _step in 0..cfg.steps {
                // Ordinary MPI structure: post the four sends, then the
                // four receives.  Each `await` suspends this rank and lets
                // the runtime schedule another rank on this PE — that is
                // the entire AMPI trick; the code is unchanged MPI style.
                if let Some(n) = up {
                    rank.send(n, TO_UP, pack(&grid[w + 1..w + 1 + b]));
                }
                if let Some(n) = down {
                    rank.send(n, TO_DOWN, pack(&grid[b * w + 1..b * w + 1 + b]));
                }
                if let Some(n) = left {
                    rank.send(n, TO_LEFT, pack(&col(&grid, 1)));
                }
                if let Some(n) = right {
                    rank.send(n, TO_RIGHT, pack(&col(&grid, b)));
                }
                if let Some(n) = up {
                    let data = unpack(&rank.recv_from(n, TO_DOWN).await);
                    grid[1..1 + b].copy_from_slice(&data);
                }
                if let Some(n) = down {
                    let data = unpack(&rank.recv_from(n, TO_UP).await);
                    grid[(b + 1) * w + 1..(b + 1) * w + 1 + b].copy_from_slice(&data);
                }
                if let Some(n) = left {
                    let data = unpack(&rank.recv_from(n, TO_RIGHT).await);
                    for (r, v) in data.into_iter().enumerate() {
                        grid[(r + 1) * w] = v;
                    }
                }
                if let Some(n) = right {
                    let data = unpack(&rank.recv_from(n, TO_LEFT).await);
                    for (r, v) in data.into_iter().enumerate() {
                        grid[(r + 1) * w + b + 1] = v;
                    }
                }
                if cfg.compute {
                    seq::sweep(&grid, &mut next, w, b, b);
                    std::mem::swap(&mut grid, &mut next);
                }
                rank.charge(cfg.cost.step_cost(b * b, n_neighbors));
            }

            // Deterministic checksum gather at rank 0 via point-to-point.
            let mut sum = 0.0f64;
            if cfg.compute {
                for r in 1..=b {
                    for c in 1..=b {
                        sum += grid[r * w + c];
                    }
                }
            }
            if me == 0 {
                // Collect first, publish after: a MutexGuard must not be
                // held across an await (the rank future must stay Send).
                let mut collected = vec![0.0f64; cfg.ranks as usize];
                collected[0] = sum;
                for _ in 1..cfg.ranks {
                    let m = rank.recv(None, Some(SUM)).await;
                    collected[m.src as usize] = f64::from_le_bytes(m.data[..8].try_into().expect("f64"));
                }
                *sums.lock().expect("sums") = collected;
            } else {
                rank.send(0, SUM, sum.to_le_bytes().to_vec());
            }
        })
    });

    let program = build_ampi_program(cfg.ranks, Mapping::Block, body);
    let report = SimEngine::new(net, run_cfg).run(program);
    let total = report.end_time - Time::ZERO;
    let block_sums = sums.lock().expect("sums").clone();
    let _ = (k, b);
    Ampi2dOutcome { ms_per_step: total.as_millis_f64() / cfg.steps as f64, block_sums, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::Dur;

    fn cfg(mesh: usize, ranks: u32, steps: u32, compute: bool) -> Ampi2dConfig {
        Ampi2dConfig {
            mesh,
            ranks,
            steps,
            compute,
            cost: StencilCost { ns_per_cell: 34.0, msg_overhead: Dur::from_micros(30), cache_effect: false },
        }
    }

    #[test]
    fn matches_sequential_reference() {
        let c = cfg(32, 16, 6, true);
        let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
        let out = run_sim(c, net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(32);
        reference.run(6);
        let expect = reference.block_sums(4);
        // Gathered block sums use the same row-major in-block order.
        for (i, (got, want)) in out.block_sums.iter().zip(&expect).enumerate() {
            assert_eq!(got, want, "rank {i} block checksum");
        }
    }

    #[test]
    fn matches_reference_under_latency() {
        let c = cfg(24, 9, 5, true);
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(20));
        let out = run_sim(c, net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(24);
        reference.run(5);
        assert_eq!(out.block_sums, reference.block_sums(3));
    }

    #[test]
    fn virtualization_masks_latency_in_unchanged_mpi_code() {
        // The paper's AMPI claim as a test: identical rank code; 1 rank/PE
        // exposes the WAN latency, 16 ranks/PE masks most of it.
        let pes = 4u32;
        let run = |ranks: u32, lat: u64| {
            let c = cfg(1024, ranks, 8, false);
            let net = NetworkModel::two_cluster_sweep(pes, Dur::from_millis(lat));
            run_sim(c, net, RunConfig::default()).ms_per_step
        };
        let thin_slowdown = run(4, 16) / run(4, 0);
        let virt_slowdown = run(64, 16) / run(64, 0);
        assert!(
            virt_slowdown < thin_slowdown * 0.75,
            "16 ranks/PE masks what 1 rank/PE exposes: {virt_slowdown:.2}x vs {thin_slowdown:.2}x"
        );
    }

    #[test]
    fn single_rank_runs() {
        let c = cfg(16, 1, 3, true);
        let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(1));
        let out = run_sim(c, net, RunConfig::default());
        let mut reference = seq::SeqStencil::new(16);
        reference.run(3);
        assert_eq!(out.block_sums, reference.block_sums(1));
    }
}

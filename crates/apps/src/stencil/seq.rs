//! Sequential reference for the five-point stencil.
//!
//! The parallel solver must produce **bit-identical** fields: each cell
//! update reads the same four neighbours and applies the same arithmetic
//! in the same order, so decomposition cannot change results.  The tests
//! compare block checksums computed with the same intra-block summation
//! order the parallel gather uses.

/// The update rule shared by every stencil variant: the new value is the
/// average of the four von-Neumann neighbours and the cell itself.
#[inline]
pub fn update(center: f64, up: f64, down: f64, left: f64, right: f64) -> f64 {
    0.2 * (center + up + down + left + right)
}

/// Deterministic initial condition: a smooth bump plus a checker ripple,
/// so every cell is distinct and boundary effects are visible.
pub fn initial_value(n: usize, row: usize, col: usize) -> f64 {
    bump_row(n, row) * bump_col(n, col) + ripple(row, col)
}

/// The row factor of [`initial_value`]'s bump.
fn bump_row(n: usize, row: usize) -> f64 {
    let x = row as f64 / n as f64;
    (std::f64::consts::TAU * x).sin()
}

/// The column factor of [`initial_value`]'s bump.
fn bump_col(n: usize, col: usize) -> f64 {
    let y = col as f64 / n as f64;
    (std::f64::consts::TAU * y).cos()
}

/// The checker ripple of [`initial_value`].
fn ripple(row: usize, col: usize) -> f64 {
    0.01 * (((row * 31 + col * 17) % 7) as f64)
}

/// Write [`initial_value`] of a `mesh`-sided mesh into a `rows`×`cols`
/// window of a row-major grid with row stride `stride`; `grid[0]` is
/// global cell (`row0`, `col0`).  The bump is separable, so its sine is
/// taken once per row and its cosine once per column; every cell gets
/// exactly the value [`initial_value`] gives it.
pub fn fill_initial(grid: &mut [f64], stride: usize, row0: usize, col0: usize, rows: usize, cols: usize, mesh: usize) {
    let col_factor: Vec<f64> = (col0..col0 + cols).map(|col| bump_col(mesh, col)).collect();
    for (i, row) in (row0..row0 + rows).enumerate() {
        let row_factor = bump_row(mesh, row);
        let line = &mut grid[i * stride..][..cols];
        for ((cell, &cf), col) in line.iter_mut().zip(&col_factor).zip(col0..) {
            *cell = row_factor * cf + ripple(row, col);
        }
    }
}

/// One Jacobi sweep: the single five-point loop every stencil variant
/// runs.  `src` and `dst` are row-major with row stride `stride`; the
/// updated cells are rows `1..=rows`, columns `1..=cols`, read from `src`
/// together with the ring of width one around them, and written to `dst`
/// (nothing else in `dst` is touched).  A caller updating a window of a
/// larger grid passes both slices starting at the window's ring corner.
///
/// Each row is five equal-length slices — centre, up, down, left, right —
/// zipped together, so the loop carries no bounds checks and vectorizes;
/// every cell is still [`update`] with the same operand order.
pub fn sweep(src: &[f64], dst: &mut [f64], stride: usize, rows: usize, cols: usize) {
    for r in 1..=rows {
        let at = r * stride + 1;
        let centre = &src[at..][..cols];
        let up = &src[at - stride..][..cols];
        let down = &src[at + stride..][..cols];
        let left = &src[at - 1..][..cols];
        let right = &src[at + 1..][..cols];
        let out = &mut dst[at..][..cols];
        for (((((o, &c), &u), &d), &l), &rt) in out.iter_mut().zip(centre).zip(up).zip(down).zip(left).zip(right) {
            *o = update(c, u, d, l, rt);
        }
    }
}

/// A dense n×n mesh with fixed (Dirichlet, zero) virtual boundary: ghost
/// reads outside the mesh return 0.  Stored with a permanent zero ring of
/// width one, so the boundary is plain data and [`sweep`] needs no
/// branches.
#[derive(Clone)]
pub struct SeqStencil {
    n: usize,
    /// (n+2)² grid; the outer ring is always zero.
    grid: Vec<f64>,
    next: Vec<f64>,
}

impl SeqStencil {
    /// A mesh initialized with [`initial_value`].
    pub fn new(n: usize) -> Self {
        let w = n + 2;
        let mut grid = vec![0.0; w * w];
        fill_initial(&mut grid[w + 1..], w, 0, 0, n, n, n);
        SeqStencil { n, grid, next: vec![0.0; w * w] }
    }

    /// Mesh side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current value at (row, col).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "cell outside the mesh");
        self.grid[(row + 1) * (self.n + 2) + col + 1]
    }

    /// Advance one Jacobi step.
    pub fn step(&mut self) {
        sweep(&self.grid, &mut self.next, self.n + 2, self.n, self.n);
        std::mem::swap(&mut self.grid, &mut self.next);
    }

    /// Advance `k` steps.
    pub fn run(&mut self, k: u32) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Per-block sums matching the parallel decomposition into `k`×`k`
    /// blocks: block (bi, bj) sums its rows in order, columns in order —
    /// the same order the parallel blocks use, so sums match exactly.
    pub fn block_sums(&self, k: usize) -> Vec<f64> {
        assert_eq!(self.n % k, 0, "blocks must divide the mesh");
        let b = self.n / k;
        let mut out = Vec::with_capacity(k * k);
        for bi in 0..k {
            for bj in 0..k {
                let mut s = 0.0;
                for r in bi * b..(bi + 1) * b {
                    for c in bj * b..(bj + 1) * b {
                        s += self.get(r, c);
                    }
                }
                out.push(s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_condition_is_deterministic_and_varied() {
        let a = SeqStencil::new(16);
        let b = SeqStencil::new(16);
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(a.get(r, c), b.get(r, c));
            }
        }
        // Not constant.
        assert_ne!(a.get(0, 0), a.get(5, 9));
    }

    #[test]
    fn step_averages_neighbors() {
        let mut s = SeqStencil::new(4);
        let expect = update(s.get(1, 1), s.get(0, 1), s.get(2, 1), s.get(1, 0), s.get(1, 2));
        s.step();
        assert_eq!(s.get(1, 1), expect);
    }

    #[test]
    fn boundary_reads_zero() {
        let mut s = SeqStencil::new(2);
        let expect = update(s.get(0, 0), 0.0, s.get(1, 0), 0.0, s.get(0, 1));
        s.step();
        assert_eq!(s.get(0, 0), expect);
    }

    #[test]
    fn diffusion_contracts_toward_zero_boundary() {
        // With zero Dirichlet boundary and an averaging stencil, the max
        // absolute value cannot grow.
        let mut s = SeqStencil::new(32);
        let max0 =
            (0..32).flat_map(|r| (0..32).map(move |c| (r, c))).map(|(r, c)| s.get(r, c).abs()).fold(0.0, f64::max);
        s.run(50);
        let max1 =
            (0..32).flat_map(|r| (0..32).map(move |c| (r, c))).map(|(r, c)| s.get(r, c).abs()).fold(0.0, f64::max);
        assert!(max1 <= max0 + 1e-12, "{max1} <= {max0}");
    }

    #[test]
    fn block_sums_partition_total() {
        let mut s = SeqStencil::new(16);
        s.run(3);
        let total: f64 = (0..16).flat_map(|r| (0..16).map(move |c| (r, c))).map(|(r, c)| s.get(r, c)).sum();
        for k in [1, 2, 4, 8] {
            let sums = s.block_sums(k);
            assert_eq!(sums.len(), k * k);
            let t: f64 = sums.iter().sum();
            assert!((t - total).abs() < 1e-9, "k={k}: {t} vs {total}");
        }
    }

    /// Seeded values (splitmix64) with varied signs and binary exponents,
    /// so that sums round and a change of operand order shows.
    fn random_grid(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                unit * 2f64.powi((z & 15) as i32 - 8)
            })
            .collect()
    }

    #[test]
    fn sweep_matches_scalar_update_bit_exactly() {
        for (cols, rows) in (1..=17).map(|c| (c, 3)).chain([(256, 5)]) {
            for pad in [0, 3] {
                // Rows of exactly window plus ring (pad 0) and wider; every
                // cell outside the window must keep its sentinel value.
                let stride = cols + 2 + pad;
                let len = (rows + 2) * stride;
                let src = random_grid(len, (cols * 100 + pad) as u64);
                let sentinel = random_grid(len, 7);
                let mut dst = sentinel.clone();
                sweep(&src, &mut dst, stride, rows, cols);
                for r in 0..rows + 2 {
                    for c in 0..stride {
                        let i = r * stride + c;
                        let want = if (1..=rows).contains(&r) && (1..=cols).contains(&c) {
                            update(src[i], src[i - stride], src[i + stride], src[i - 1], src[i + 1])
                        } else {
                            sentinel[i]
                        };
                        assert_eq!(dst[i].to_bits(), want.to_bits(), "cols={cols} pad={pad} at ({r}, {c})");
                    }
                }
            }
        }
    }

    /// The stepper this module had before the padded mesh: a dense n×n
    /// grid whose every read is bounds-checked against the mesh.
    fn bounds_checked_steps(n: usize, steps: u32) -> Vec<f64> {
        let mut grid: Vec<f64> = (0..n * n).map(|i| initial_value(n, i / n, i % n)).collect();
        let mut next = vec![0.0; n * n];
        let n = n as isize;
        for _ in 0..steps {
            let at = |g: &[f64], r: isize, c: isize| {
                if r < 0 || c < 0 || r >= n || c >= n {
                    0.0
                } else {
                    g[(r * n + c) as usize]
                }
            };
            for r in 0..n {
                for c in 0..n {
                    next[(r * n + c) as usize] = update(
                        at(&grid, r, c),
                        at(&grid, r - 1, c),
                        at(&grid, r + 1, c),
                        at(&grid, r, c - 1),
                        at(&grid, r, c + 1),
                    );
                }
            }
            std::mem::swap(&mut grid, &mut next);
        }
        grid
    }

    #[test]
    fn padded_mesh_matches_bounds_checked_stepper() {
        for n in [1, 2, 3, 7, 16, 33] {
            let mut s = SeqStencil::new(n);
            for steps in 0..4 {
                let want = bounds_checked_steps(n, steps);
                for r in 0..n {
                    for c in 0..n {
                        assert_eq!(s.get(r, c).to_bits(), want[r * n + c].to_bits(), "n={n} steps={steps} ({r}, {c})");
                    }
                }
                s.step();
            }
        }
    }

    #[test]
    fn fill_initial_matches_initial_value() {
        let (mesh, stride, rows, cols) = (48, 21, 9, 17);
        for (row0, col0) in [(0, 0), (5, 11), (39, 31)] {
            let mut grid = vec![f64::NAN; rows * stride];
            fill_initial(&mut grid, stride, row0, col0, rows, cols, mesh);
            for r in 0..rows {
                for c in 0..stride {
                    let got = grid[r * stride + c];
                    if c < cols {
                        assert_eq!(got.to_bits(), initial_value(mesh, row0 + r, col0 + c).to_bits());
                    } else {
                        assert!(got.is_nan(), "wrote outside the window at ({r}, {c})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide the mesh")]
    fn block_sums_requires_divisibility() {
        SeqStencil::new(10).block_sums(3);
    }
}

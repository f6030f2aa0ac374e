//! Sparse LU factorization for the transient circuit solve.
//!
//! Modified-nodal-analysis matrices are sparse, but eliminated in their
//! natural node order they fill in almost completely: the 53 unknowns of
//! the 4×4 stacked power-delivery network carry 212 stamp nonzeros, and
//! their natural-order L and U hold 1 873 off-diagonal entries.
//! [`SparseLu`] first orders the unknowns by minimum degree, which keeps
//! the factors near 200 entries, then factors the reordered matrix with
//! partial pivoting and stores L and U as compressed rows, so a solve
//! costs one multiply-subtract per stored entry.
//!
//! The two phases:
//!
//! * **Symbolic.** An exact greedy minimum-degree ordering of the symmetric
//!   pattern of `A + Aᵀ`: repeatedly eliminate the unknown with the fewest
//!   uneliminated neighbours (lowest index on a tie) and join its
//!   neighbours into a clique. The elimination graph is a bitset per
//!   unknown, so the ordering costs O(n²·⌈n/64⌉) word operations.
//! * **Numeric.** Partial pivoting on `Q A Qᵀ` in a dense scratch (the
//!   systems here have at most a few dozen unknowns), after which the
//!   nonzero entries are gathered into compressed rows.
//!
//! The ordering and the pivot rows never leave the factor. Its column
//! indices address the right-hand side directly, so the substitutions run
//! in place without a permuting pass, and a short swap list at the end
//! moves each solution component to its unknown. The multi-lane kernels
//! solve several right-hand sides against this one factorization and
//! perform the scalar kernel's floating-point operations per lane in the
//! same order, so they are bit-identical to [`SparseLu::solve_in_place`].
//!
//! Scratch for both phases lives in the factor, so a warmed-up
//! [`SparseLu::refactor`] performs no heap allocation.

use crate::linalg::{Matrix, SingularMatrixError};

/// Sparse LU factors `P Q A Qᵀ = L U` of a real square matrix: `Q` is a
/// minimum-degree symmetric ordering, `P` the partial-pivoting row
/// permutation, `L` unit lower triangular.
///
/// Factor once with [`SparseLu::factor`] (or reuse storage with
/// [`SparseLu::refactor`]), then solve many right-hand sides with
/// [`SparseLu::solve_in_place`] or, for several right-hand sides at once,
/// [`SparseLu::solve_multi_in_place`].
///
/// # Examples
///
/// ```
/// use vs_num::{Matrix, SparseLu};
///
/// let a = Matrix::from_rows(&[vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 2.0]]);
/// let lu = SparseLu::factor(&a)?;
/// let x = lu.solve(&[5.0, 5.0, 3.0]);
/// for (xi, want) in x.iter().zip([1.0, 1.0, 1.0]) {
///     assert!((xi - want).abs() < 1e-12);
/// }
/// # Ok::<(), vs_num::SingularMatrixError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// `order[k]`: the unknown eliminated `k`-th (the symmetric ordering).
    order: Vec<u32>,
    /// `slot[i]`: the row of `A` that became pivot row `i`. The
    /// substitutions keep the running value of pivot row `i` in
    /// `b[slot[i]]`, the entry of the right-hand side it starts from.
    slot: Vec<u32>,
    /// Row `i` of the strictly lower `L` is
    /// `l_idx/l_val[l_start[i]..l_start[i + 1]]`, ascending by pivot
    /// column; each column is stored as the slot of its pivot row.
    l_start: Vec<u32>,
    l_idx: Vec<u32>,
    l_val: Vec<f64>,
    /// Strictly upper `U`, same layout.
    u_start: Vec<u32>,
    u_idx: Vec<u32>,
    u_val: Vec<f64>,
    /// Diagonal of `U`.
    diag: Vec<f64>,
    /// Swaps that move each solution component from its slot to its
    /// unknown's position, applied in order after the substitutions.
    post_swaps: Vec<(u32, u32)>,
    scratch: Scratch,
}

/// Buffers reused by every refactor.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Dense row-major `n × n` elimination workspace.
    work: Vec<f64>,
    /// Elimination graph: `⌈n/64⌉` bitset words per unknown.
    adj: Vec<u64>,
    /// Uneliminated unknowns.
    alive: Vec<u64>,
    /// The three maps of the swap-list builder (see `build_post_swaps`).
    source: Vec<u32>,
    at: Vec<u32>,
    pos: Vec<u32>,
}

impl SparseLu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`], naming the unknown whose pivot
    /// failed, if a pivot smaller than `1e-300` in magnitude or a
    /// non-finite one is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix<f64>) -> Result<Self, SingularMatrixError> {
        let mut out = Self::default();
        out.refactor(a)?;
        Ok(out)
    }

    /// Re-factors `a` in place, reusing every internal buffer: once the
    /// buffers have grown to this system's size, no heap allocation.
    ///
    /// On error the factors are left in an unusable intermediate state; a
    /// subsequent successful `refactor` restores full consistency.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factor`].
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn refactor(&mut self, a: &Matrix<f64>) -> Result<(), SingularMatrixError> {
        assert_eq!(a.n_rows(), a.n_cols(), "LU requires a square matrix");
        self.n = a.n_rows();
        self.minimum_degree_order(a);
        self.eliminate(a)?;
        self.gather_factors();
        self.build_post_swaps();
        Ok(())
    }

    /// Symbolic phase: exact greedy minimum degree over the pattern of
    /// `A + Aᵀ`, lowest index first on a tie. Fills `order`.
    fn minimum_degree_order(&mut self, a: &Matrix<f64>) {
        let n = self.n;
        let words = n.div_ceil(64);
        let Scratch { adj, alive, .. } = &mut self.scratch;
        adj.clear();
        adj.resize(n * words, 0);
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 && i != j {
                    adj[i * words + j / 64] |= 1 << (j % 64);
                    adj[j * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        alive.clear();
        alive.resize(words, 0);
        for v in 0..n {
            alive[v / 64] |= 1 << (v % 64);
        }
        let is_alive = |alive: &[u64], v: usize| alive[v / 64] & (1 << (v % 64)) != 0;
        self.order.clear();
        for _ in 0..n {
            let mut best = 0;
            let mut best_degree = u32::MAX;
            for v in (0..n).filter(|&v| is_alive(alive, v)) {
                let degree: u32 = adj[v * words..(v + 1) * words]
                    .iter()
                    .zip(alive.iter())
                    .map(|(x, m)| (x & m).count_ones())
                    .sum();
                if degree < best_degree {
                    best = v;
                    best_degree = degree;
                }
            }
            self.order.push(best as u32);
            alive[best / 64] &= !(1 << (best % 64));
            // The eliminated unknown's live neighbours become a clique.
            for u in 0..n {
                if is_alive(alive, u) && adj[best * words + u / 64] & (1 << (u % 64)) != 0 {
                    for w in 0..words {
                        adj[u * words + w] |= adj[best * words + w] & alive[w];
                    }
                    adj[u * words + u / 64] &= !(1 << (u % 64));
                }
            }
        }
    }

    /// Numeric phase: partial pivoting on `Q A Qᵀ` in the dense scratch,
    /// tracking in `slot` which row of `A` each pivot row came from.
    fn eliminate(&mut self, a: &Matrix<f64>) -> Result<(), SingularMatrixError> {
        let n = self.n;
        let work = &mut self.scratch.work;
        work.clear();
        for &r in &self.order {
            let row = a.row(r as usize);
            work.extend(self.order.iter().map(|&c| row[c as usize]));
        }
        self.slot.clear();
        self.slot.extend_from_slice(&self.order);
        for col in 0..n {
            let mut best_row = col;
            let mut best_mag = work[col * n + col].abs();
            for row in (col + 1)..n {
                let mag = work[row * n + col].abs();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = row;
                }
            }
            if best_mag < 1e-300 || !best_mag.is_finite() {
                return Err(SingularMatrixError {
                    column: self.order[col] as usize,
                });
            }
            if best_row != col {
                let (head, tail) = work.split_at_mut(best_row * n);
                head[col * n..(col + 1) * n].swap_with_slice(&mut tail[..n]);
                self.slot.swap(col, best_row);
            }
            let (head, tail) = work.split_at_mut((col + 1) * n);
            let pivot_row = &head[col * n..];
            let pivot = pivot_row[col];
            for row in tail.chunks_exact_mut(n) {
                let factor = row[col] / pivot;
                row[col] = factor;
                if factor != 0.0 {
                    for (x, &p) in row[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                        *x -= factor * p;
                    }
                }
            }
        }
        Ok(())
    }

    /// Gathers the nonzero entries of the eliminated scratch into the
    /// compressed rows, addressing each column by its pivot row's slot.
    fn gather_factors(&mut self) {
        let n = self.n;
        self.l_start.clear();
        self.l_idx.clear();
        self.l_val.clear();
        self.u_start.clear();
        self.u_idx.clear();
        self.u_val.clear();
        self.diag.clear();
        self.l_start.push(0);
        self.u_start.push(0);
        for i in 0..n {
            let row = &self.scratch.work[i * n..(i + 1) * n];
            for (j, &v) in row[..i].iter().enumerate() {
                if v != 0.0 {
                    self.l_idx.push(self.slot[j]);
                    self.l_val.push(v);
                }
            }
            self.l_start.push(self.l_idx.len() as u32);
            self.diag.push(row[i]);
            for (j, &v) in row.iter().enumerate().skip(i + 1) {
                if v != 0.0 {
                    self.u_idx.push(self.slot[j]);
                    self.u_val.push(v);
                }
            }
            self.u_start.push(self.u_idx.len() as u32);
        }
    }

    /// After the substitutions, unknown `order[i]` sits in `b[slot[i]]`.
    /// Records the swaps that move every component home, so the solve can
    /// finish in place.
    fn build_post_swaps(&mut self) {
        let n = self.n;
        let Scratch {
            source, at, pos, ..
        } = &mut self.scratch;
        // source[k]: the position unknown k's component must come from.
        source.clear();
        source.resize(n, 0);
        for (i, &k) in self.order.iter().enumerate() {
            source[k as usize] = self.slot[i];
        }
        // at[p]: the original position of the value now at p; pos is its
        // inverse. Position k is final once it holds source[k], and later
        // swaps only touch positions above it.
        at.clear();
        at.extend(0..n as u32);
        pos.clear();
        pos.extend(0..n as u32);
        self.post_swaps.clear();
        for k in 0..n {
            let want = source[k];
            let p = pos[want as usize];
            if p as usize != k {
                self.post_swaps.push((k as u32, p));
                let displaced = at[k];
                at[k] = want;
                at[p as usize] = displaced;
                pos[want as usize] = k as u32;
                pos[displaced as usize] = p;
            }
        }
    }

    /// Stored entries of the strictly lower factor `L`.
    pub fn lower_nnz(&self) -> usize {
        self.l_val.len()
    }

    /// Stored entries of the strictly upper factor `U` (its diagonal is
    /// stored apart and not counted).
    pub fn upper_nnz(&self) -> usize {
        self.u_val.len()
    }

    /// Solves `A*x = b` in place: `b` holds the solution on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "dimension mismatch in solve_in_place");
        for i in 0..self.n {
            let (idx, val) = self.lower_row(i);
            let s = self.slot[i] as usize;
            let mut acc = b[s];
            for (&j, &c) in idx.iter().zip(val) {
                acc -= c * b[j as usize];
            }
            b[s] = acc;
        }
        for i in (0..self.n).rev() {
            let (idx, val) = self.upper_row(i);
            let s = self.slot[i] as usize;
            let mut acc = b[s];
            for (&j, &c) in idx.iter().zip(val) {
                acc -= c * b[j as usize];
            }
            b[s] = acc / self.diag[i];
        }
        for &(p, q) in &self.post_swaps {
            b.swap(p as usize, q as usize);
        }
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    fn lower_row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.l_start[i] as usize..self.l_start[i + 1] as usize;
        (&self.l_idx[r.clone()], &self.l_val[r])
    }

    fn upper_row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.u_start[i] as usize..self.u_start[i + 1] as usize;
        (&self.u_idx[r.clone()], &self.u_val[r])
    }

    /// Solves `A*x = b` for `n_lanes` right-hand sides held in one
    /// structure-of-arrays buffer, all sharing this factorization.
    ///
    /// `soa` is interleaved index-major: the `n_lanes` values of unknown `i`
    /// are contiguous at `soa[i * n_lanes..(i + 1) * n_lanes]`, so the inner
    /// lane loops are unit-stride. Per lane the arithmetic runs in exactly
    /// the order of [`SparseLu::solve_in_place`], so each lane's result is
    /// bit-identical to an independent scalar solve; the lanes only
    /// amortize the factor loads and loop bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes == 0` or `soa.len()` is not the factored dimension
    /// times `n_lanes`.
    pub fn solve_multi_in_place(&self, soa: &mut [f64], n_lanes: usize) {
        assert!(n_lanes > 0, "solve_multi_in_place needs at least one lane");
        assert_eq!(
            soa.len(),
            self.n * n_lanes,
            "dimension mismatch in solve_multi_in_place"
        );
        // The common lane counts get monomorphized kernels whose lane block
        // lives in registers across a row's entries instead of
        // round-tripping memory per term.
        match n_lanes {
            1 => self.solve_in_place(soa),
            2 => self.solve_multi_fixed::<2>(soa),
            4 => self.solve_multi_fixed::<4>(soa),
            8 => self.solve_multi_fixed::<8>(soa),
            m => self.solve_multi_any(soa, m),
        }
    }

    /// [`SparseLu::solve_multi_in_place`] for a compile-time lane count.
    fn solve_multi_fixed<const M: usize>(&self, soa: &mut [f64]) {
        let block = |soa: &[f64], s: usize| -> [f64; M] {
            soa[s * M..(s + 1) * M].try_into().expect("lane block")
        };
        for i in 0..self.n {
            let (idx, val) = self.lower_row(i);
            let s = self.slot[i] as usize;
            let mut acc = block(soa, s);
            for (&j, &c) in idx.iter().zip(val) {
                let bj = block(soa, j as usize);
                for l in 0..M {
                    acc[l] -= c * bj[l];
                }
            }
            soa[s * M..(s + 1) * M].copy_from_slice(&acc);
        }
        for i in (0..self.n).rev() {
            let (idx, val) = self.upper_row(i);
            let s = self.slot[i] as usize;
            let mut acc = block(soa, s);
            for (&j, &c) in idx.iter().zip(val) {
                let bj = block(soa, j as usize);
                for l in 0..M {
                    acc[l] -= c * bj[l];
                }
            }
            let d = self.diag[i];
            for x in &mut acc {
                *x /= d;
            }
            soa[s * M..(s + 1) * M].copy_from_slice(&acc);
        }
        self.swap_lane_blocks(soa, M);
    }

    /// [`SparseLu::solve_multi_in_place`] for any other lane count: a
    /// lane-at-a-time loop whose in-place updates of each lane's entry of
    /// `soa` perform the scalar kernel's subtractions in its order.
    fn solve_multi_any(&self, soa: &mut [f64], m: usize) {
        for i in 0..self.n {
            let (idx, val) = self.lower_row(i);
            let s = self.slot[i] as usize * m;
            for (&j, &c) in idx.iter().zip(val) {
                let j = j as usize * m;
                for l in 0..m {
                    let y = soa[j + l];
                    soa[s + l] -= c * y;
                }
            }
        }
        for i in (0..self.n).rev() {
            let (idx, val) = self.upper_row(i);
            let s = self.slot[i] as usize * m;
            for (&j, &c) in idx.iter().zip(val) {
                let j = j as usize * m;
                for l in 0..m {
                    let y = soa[j + l];
                    soa[s + l] -= c * y;
                }
            }
            let d = self.diag[i];
            for x in &mut soa[s..s + m] {
                *x /= d;
            }
        }
        self.swap_lane_blocks(soa, m);
    }

    /// The closing swaps of the solve, on `m`-wide lane blocks.
    fn swap_lane_blocks(&self, soa: &mut [f64], m: usize) {
        for &(p, q) in &self.post_swaps {
            let (lo, hi) = (p as usize * m, q as usize * m);
            let (head, tail) = soa.split_at_mut(hi);
            head[lo..lo + m].swap_with_slice(&mut tail[..m]);
        }
    }

    /// Bitwise equality: the same symbolic structure (dimension, ordering,
    /// pivot rows, L/U patterns and closing swaps) and every stored factor
    /// entry identical down to the sign of zero. Lanes whose factors pass
    /// this check can share one representative factorization in a
    /// multi-lane solve without perturbing any lane's result bits.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        let same_bits =
            |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        self.n == other.n
            && self.order == other.order
            && self.slot == other.slot
            && self.l_start == other.l_start
            && self.l_idx == other.l_idx
            && self.u_start == other.u_start
            && self.u_idx == other.u_idx
            && self.post_swaps == other.post_swaps
            && same_bits(&self.l_val, &other.l_val)
            && same_bits(&self.u_val, &other.u_val)
            && same_bits(&self.diag, &other.diag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LuFactors;

    /// A banded diagonally dominant system.
    fn banded_system(n: usize) -> Matrix<f64> {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0 + i as f64 * 0.125;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -0.5;
            }
            if i + 5 < n {
                a[(i, i + 5)] = 0.25;
            }
        }
        a
    }

    /// A star-plus-chain matrix with zero diagonals on its "branch" rows,
    /// the shape of MNA voltage-source rows, so pivoting must swap rows.
    fn mna_like(n: usize) -> Matrix<f64> {
        let mut a = Matrix::zeros(n, n);
        let nodes = n - 2;
        for i in 0..nodes {
            a[(i, i)] = 3.0 + 0.25 * i as f64;
            a[(i, 0)] -= 0.5;
            a[(0, i)] -= 0.5;
            if i + 1 < nodes {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        a[(0, 0)] = 10.0;
        // Two branch rows: (k, node) = (node, k) = 1, zero diagonal.
        for (k, node) in [(nodes, 1), (nodes + 1, nodes - 1)] {
            a[(k, node)] = 1.0;
            a[(node, k)] = 1.0;
        }
        a
    }

    fn lane_rhs(n: usize, lane: u64) -> Vec<f64> {
        let mut seed = 0x243f_6a88_85a3_08d3u64 ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        (0..n).map(|_| next()).collect()
    }

    fn interleave(rhs: &[Vec<f64>]) -> Vec<f64> {
        let m = rhs.len();
        let n = rhs[0].len();
        let mut soa = vec![0.0; n * m];
        for (l, b) in rhs.iter().enumerate() {
            for i in 0..n {
                soa[i * m + l] = b[i];
            }
        }
        soa
    }

    fn assert_residual_small(a: &Matrix<f64>, x: &[f64], b: &[f64]) {
        let r = a.mul_vec(x);
        for (ri, bi) in r.iter().zip(b) {
            assert!((ri - bi).abs() < 1e-10, "residual {ri} vs {bi}");
        }
    }

    #[test]
    fn solves_like_the_dense_factorization() {
        for a in [banded_system(16), mna_like(12)] {
            let n = a.n_rows();
            let b = lane_rhs(n, 7);
            let x = SparseLu::factor(&a).unwrap().solve(&b);
            assert_residual_small(&a, &x, &b);
            let dense = LuFactors::factor(&a).unwrap().solve(&b);
            for (s, d) in x.iter().zip(&dense) {
                assert!((s - d).abs() <= 1e-12 * d.abs().max(1.0));
            }
        }
    }

    #[test]
    fn pivots_and_permutes_back() {
        let a = mna_like(12);
        let lu = SparseLu::factor(&a).unwrap();
        // The zero-diagonal branch rows force row swaps, so the closing
        // swap list is exercised.
        assert!(!lu.post_swaps.is_empty());
        let b = lane_rhs(12, 3);
        assert_residual_small(&a, &lu.solve(&b), &b);
    }

    #[test]
    fn minimum_degree_reduces_fill_on_an_arrow() {
        // An arrow matrix pointing up-left fills completely in natural
        // order; leaving the hub to the end keeps it fill-free. (With one
        // leaf left, hub and leaf tie at degree 1 and the hub's lower index
        // wins.)
        let n = 20;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            a[(0, i)] = 1.0;
            a[(i, 0)] = 1.0;
        }
        a[(0, 0)] = 40.0;
        let lu = SparseLu::factor(&a).unwrap();
        assert_eq!(lu.lower_nnz() + lu.upper_nnz(), 2 * (n - 1));
        assert_eq!(lu.order[n - 2], 0, "the hub waits for all but one leaf");
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(SparseLu::factor(&a).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let small = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let big = mna_like(10);
        let mut lu = SparseLu::factor(&small).unwrap();
        lu.refactor(&big).unwrap();
        let fresh = SparseLu::factor(&big).unwrap();
        assert!(lu.bitwise_eq(&fresh));
        let b = lane_rhs(10, 1);
        assert_eq!(lu.solve(&b), fresh.solve(&b));
        // A failed refactor leaves the factor usable after a later
        // successful one.
        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu.refactor(&singular).is_err());
        lu.refactor(&small).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn multi_lane_solve_is_bit_identical_to_scalar() {
        for a in [banded_system(16), mna_like(14)] {
            let n = a.n_rows();
            let lu = SparseLu::factor(&a).unwrap();
            for n_lanes in [1usize, 2, 3, 4, 5, 8] {
                let rhs: Vec<Vec<f64>> = (0..n_lanes).map(|l| lane_rhs(n, l as u64)).collect();
                let mut soa = interleave(&rhs);
                lu.solve_multi_in_place(&mut soa, n_lanes);
                for (l, b) in rhs.iter().enumerate() {
                    let x = lu.solve(b);
                    for i in 0..n {
                        assert_eq!(
                            soa[i * n_lanes + l].to_bits(),
                            x[i].to_bits(),
                            "lane {l} of {n_lanes} diverged at row {i}"
                        );
                    }
                }
            }
        }
    }
}

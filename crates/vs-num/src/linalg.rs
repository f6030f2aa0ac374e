//! Dense LU factorization with partial pivoting, generic over the circuit
//! scalar ([`f64`] for DC analysis and the control toolkit, [`Complex`] for
//! AC analysis).
//!
//! These callers factor a matrix once or a handful of times (a DC operating
//! point, one frequency point, a Padé denominator), so a dense
//! factorization in natural order is simple and fast enough. The
//! per-cycle transient solve uses [`SparseLu`] instead, whose
//! fill-reducing ordering and compressed factors make each step's
//! substitution cost proportional to the factor's nonzeros.
//!
//! [`Complex`]: crate::Complex
//! [`SparseLu`]: crate::SparseLu

use crate::complex::Scalar;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n_rows: usize,
    n_cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n_rows x n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Matrix {
            n_rows,
            n_cols,
            data: vec![T::zero(); n_rows * n_cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from a row-major nested array, panicking if rows are
    /// ragged.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == n_cols),
            "ragged rows in Matrix::from_rows"
        );
        Matrix {
            n_rows,
            n_cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Fills every entry with zero, preserving the shape.
    pub fn clear(&mut self) {
        self.data.fill(T::zero());
    }

    /// Reshapes to `n_rows x n_cols` and fills with zeros, reusing the
    /// existing allocation when it is large enough.
    pub fn resize_zeroed(&mut self, n_rows: usize, n_cols: usize) {
        self.n_rows = n_rows;
        self.n_cols = n_cols;
        self.data.clear();
        self.data.resize(n_rows * n_cols, T::zero());
    }

    /// Copies `src` into `self`, reusing the existing allocation when it is
    /// large enough.
    pub fn copy_from(&mut self, src: &Matrix<T>) {
        self.n_rows = src.n_rows;
        self.n_cols = src.n_cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n_rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in mul_vec");
        let mut y = vec![T::zero(); self.n_rows];
        for (i, out) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            let mut acc = T::zero();
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *out = acc;
        }
        y
    }
}

impl<T: Scalar> Matrix<T> {
    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.n_cols, rhs.n_rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.n_rows, rhs.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.n_cols {
                let aik = self[(i, k)];
                if aik == T::zero() {
                    continue;
                }
                for j in 0..rhs.n_cols {
                    let add = aik * rhs[(k, j)];
                    out[(i, j)] += add;
                }
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.n_rows, self.n_cols), (rhs.n_rows, rhs.n_cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
        out
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.n_rows, self.n_cols), (rhs.n_rows, rhs.n_cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a = *a * s;
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.n_cols, self.n_rows);
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.magnitude()).fold(0.0, f64::max)
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| {
                (0..self.n_cols)
                    .map(|j| self[(i, j)].magnitude())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Default for Matrix<T> {
    /// An empty `0 x 0` matrix that allocates nothing.
    fn default() -> Self {
        Matrix { n_rows: 0, n_cols: 0, data: Vec::new() }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        &self.data[r * self.n_cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        &mut self.data[r * self.n_cols + c]
    }
}

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column where elimination failed.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at pivot column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// A dense LU factorization `P*A = L*U` with partial pivoting, in the
/// matrix's natural order.
///
/// Factor once with [`LuFactors::factor`], then reuse
/// [`LuFactors::solve_in_place`] for many right-hand sides;
/// [`LuFactors::refactor`] refactors into the existing storage.
///
/// The factorization records the per-row nonzero columns of `L` and `U` and
/// the substitutions skip exactly the zero entries. The skipped terms are
/// exact zeros, so the accumulation order of the surviving terms — and
/// hence the floating-point result — is that of a dense sweep.
#[derive(Debug, Clone)]
pub struct LuFactors<T> {
    lu: Matrix<T>,
    pivots: Vec<usize>,
    /// Strictly-lower nonzero columns of row `i`, ascending, in
    /// `lower_cols[lower_start[i]..lower_start[i + 1]]`.
    lower_cols: Vec<u32>,
    lower_start: Vec<u32>,
    /// Strictly-upper nonzero columns, same layout.
    upper_cols: Vec<u32>,
    upper_start: Vec<u32>,
}

impl<T: Scalar> Default for LuFactors<T> {
    /// An empty (`0 x 0`) factorization that allocates nothing; fill it with
    /// [`LuFactors::refactor`] before solving.
    fn default() -> Self {
        LuFactors {
            lu: Matrix::default(),
            pivots: Vec::new(),
            lower_cols: Vec::new(),
            lower_start: Vec::new(),
            upper_cols: Vec::new(),
            upper_start: Vec::new(),
        }
    }
}

impl<T: Scalar> LuFactors<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix<T>) -> Result<Self, SingularMatrixError> {
        let mut out = Self::default();
        out.refactor(a)?;
        Ok(out)
    }

    /// Re-factors `a` in place, reusing every internal buffer.
    ///
    /// On error the factors are left in an unusable intermediate state; a
    /// subsequent successful `refactor` restores full consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn refactor(&mut self, a: &Matrix<T>) -> Result<(), SingularMatrixError> {
        assert_eq!(a.n_rows(), a.n_cols(), "LU requires a square matrix");
        let n = a.n_rows();
        self.lu.copy_from(a);
        let lu = &mut self.lu;
        let pivots = &mut self.pivots;
        pivots.clear();
        for col in 0..n {
            // Partial pivoting: pick the largest remaining entry in this column.
            let mut best_row = col;
            let mut best_mag = lu[(col, col)].magnitude();
            for row in (col + 1)..n {
                let mag = lu[(row, col)].magnitude();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = row;
                }
            }
            if best_mag < 1e-300 || !best_mag.is_finite() {
                return Err(SingularMatrixError { column: col });
            }
            pivots.push(best_row);
            if best_row != col {
                for c in 0..n {
                    let tmp = lu[(col, c)];
                    lu[(col, c)] = lu[(best_row, c)];
                    lu[(best_row, c)] = tmp;
                }
            }
            let pivot = lu[(col, col)];
            for row in (col + 1)..n {
                let factor = lu[(row, col)] / pivot;
                lu[(row, col)] = factor;
                if factor != T::zero() {
                    for c in (col + 1)..n {
                        let sub = factor * lu[(col, c)];
                        lu[(row, c)] -= sub;
                    }
                }
            }
        }
        self.rebuild_pattern();
        Ok(())
    }

    /// Records the per-row nonzero columns of the freshly computed factors.
    fn rebuild_pattern(&mut self) {
        let n = self.lu.n_rows();
        self.lower_cols.clear();
        self.lower_start.clear();
        self.upper_cols.clear();
        self.upper_start.clear();
        self.lower_start.push(0);
        self.upper_start.push(0);
        for i in 0..n {
            let row = self.lu.row(i);
            for (j, v) in row.iter().enumerate().take(i) {
                if *v != T::zero() {
                    self.lower_cols.push(j as u32);
                }
            }
            self.lower_start.push(self.lower_cols.len() as u32);
            for (j, v) in row.iter().enumerate().skip(i + 1) {
                if *v != T::zero() {
                    self.upper_cols.push(j as u32);
                }
            }
            self.upper_start.push(self.upper_cols.len() as u32);
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.n_rows()
    }

    /// Solves `A*x = b` in place: `b` holds the solution on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, b: &mut [T]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "dimension mismatch in solve_in_place");
        // Apply the row permutation.
        for (col, &piv) in self.pivots.iter().enumerate() {
            if piv != col {
                b.swap(col, piv);
            }
        }
        // Forward substitution with unit-lower-triangular L, visiting only
        // the recorded nonzero columns (ascending, so the accumulation order
        // matches a dense sweep with the zero terms dropped).
        for i in 1..n {
            let row = self.lu.row(i);
            let mut acc = b[i];
            let s = self.lower_start[i] as usize;
            let e = self.lower_start[i + 1] as usize;
            for &j in &self.lower_cols[s..e] {
                acc -= row[j as usize] * b[j as usize];
            }
            b[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = b[i];
            let s = self.upper_start[i] as usize;
            let e = self.upper_start[i + 1] as usize;
            for &j in &self.upper_cols[s..e] {
                acc -= row[j as usize] * b[j as usize];
            }
            b[i] = acc / row[i];
        }
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Computes the matrix inverse column by column.
    pub fn inverse(&self) -> Matrix<T> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut col = vec![T::zero(); n];
        for j in 0..n {
            col.fill(T::zero());
            col[j] = T::one();
            self.solve_in_place(&mut col);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn identity_solve_returns_rhs() {
        let a: Matrix<f64> = Matrix::identity(4);
        let lu = LuFactors::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.5, 0.25];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn solves_small_real_system() {
        // A = [[2,1],[1,3]], b = [3,5] => x = [4/5, 7/5]
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(LuFactors::factor(&a).is_err());
    }

    #[test]
    fn complex_system_solution() {
        // (1+i) x = 2 => x = 1-i
        let mut a = Matrix::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[Complex::from_re(2.0)]);
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_manual_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let y = a.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b4 = Matrix::from_rows(&[
            vec![4.0, 0.0, 1.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0],
            vec![1.0, 0.0, 5.0, 2.0],
            vec![0.0, 0.0, 2.0, 6.0],
        ]);
        // Refactoring across a dimension change must behave exactly like a
        // fresh factorization.
        let mut lu = LuFactors::factor(&a).unwrap();
        lu.refactor(&b4).unwrap();
        let fresh = LuFactors::factor(&b4).unwrap();
        let rhs = [1.0, -2.0, 3.0, 0.5];
        let mut x_reused = rhs;
        let mut x_fresh = rhs;
        lu.solve_in_place(&mut x_reused);
        fresh.solve_in_place(&mut x_fresh);
        assert_eq!(x_reused, x_fresh);
        // A refactor that fails leaves the struct usable after a later
        // successful refactor.
        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu.refactor(&singular).is_err());
        lu.refactor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn sparse_pattern_solve_matches_dense_residual() {
        // A banded (sparse) diagonally dominant system: the pattern-based
        // substitutions must reproduce the exact solution of the full sweep.
        let n = 16;
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
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 7.5).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn random_roundtrip_via_residual() {
        // Deterministic pseudo-random fill; checks ||Ax - b|| is tiny.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => nonsingular
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }
}

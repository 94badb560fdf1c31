//! Dense matrices over `f64` and [`Complex`], with LU factorization.
//!
//! Circuit analysis in rfkit boils down to solving moderately sized dense
//! complex linear systems (MNA matrices of a few dozen nodes) and real
//! least-squares problems (model fitting). This module implements exactly
//! that: row-major dense storage, Gaussian elimination with partial
//! pivoting, determinants, inverses and multi-RHS solves.

use crate::complex::Complex;
use crate::is_exact_zero;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Error raised by factorizations and solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix (or the system) is singular to working precision.
    Singular {
        /// Pivot index at which elimination broke down: the row whose
        /// scale vanished during setup, or the column whose pivot was
        /// exactly zero during elimination. Provenance for diagnostics —
        /// it names the MNA unknown (node/branch) that is unconstrained.
        pivot: usize,
    },
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// Dimensions of the left/first operand as `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right/second operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular { pivot } => {
                write!(f, "matrix is singular to working precision (pivot {pivot})")
            }
            MatrixError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatrixError::NotSquare => write!(f, "operation requires a square matrix"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Abstraction over the scalar field so [`Matrix`] works for `f64` and
/// [`Complex`] with one implementation.
///
/// This trait is sealed in spirit: it is implemented exactly for the two
/// scalar types the suite uses and is not meant for downstream impls.
pub trait Scalar:
    Copy
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + fmt::Debug
    + fmt::Display
    + Default
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn modulus(self) -> f64;
    /// Squared magnitude — the cheap pivot metric: comparing `|z|²·s²`
    /// picks the same pivot as comparing `|z|·s` (squaring is monotone on
    /// non-negatives) without any square root per candidate.
    fn modulus_sq(self) -> f64;
    /// Conjugate (identity for reals).
    fn conj(self) -> Self;
    /// Embeds a real number.
    fn from_f64(x: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_sq(self) -> f64 {
        self * self
    }
    #[inline]
    fn conj(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn modulus_sq(self) -> f64 {
        self.norm_sqr()
    }
    #[inline]
    fn conj(self) -> Complex {
        Complex::conj(self)
    }
    #[inline]
    fn from_f64(x: f64) -> Complex {
        Complex::real(x)
    }
}

/// A dense row-major matrix over scalar type `T`.
///
/// # Examples
///
/// ```
/// use rfkit_num::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = a.solve(&[5.0, 10.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Complex-valued matrix alias used throughout circuit analysis.
pub type CMatrix = Matrix<Complex>;
/// Real-valued matrix alias used in fitting and statistics.
pub type RMatrix = Matrix<f64>;

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (Hermitian adjoint); equals [`Matrix::transpose`]
    /// for real matrices.
    pub fn adjoint(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == T::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] = out[(i, j)] + aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = T::ZERO;
                for j in 0..self.cols {
                    acc = acc + self[(i, j)] * v[j];
                }
                acc
            })
            .collect()
    }

    /// Scales every entry by `k`.
    pub fn scaled(&self, k: T) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Congruence transform `T · self · T†`, the fundamental operation on
    /// noise-correlation matrices.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when shapes do not chain.
    pub fn congruence(&self, t: &Self) -> Result<Self, MatrixError> {
        t.matmul(self)?.matmul(&t.adjoint())
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square input and
    /// [`MatrixError::Singular`] when a pivot underflows.
    pub fn lu(&self) -> Result<Lu<T>, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare);
        }
        let mut lu = self.clone();
        let mut perm = Vec::new();
        let mut scale = Vec::new();
        let sign = lu_factor_in_place(&mut lu, &mut perm, &mut scale)?;
        #[cfg(feature = "numsan")]
        if self.as_slice().iter().all(|v| !v.modulus().is_nan())
            && lu.as_slice().iter().any(|v| v.modulus().is_nan())
        {
            crate::numsan::fail("Matrix::lu", "NaN", &[], file!(), line!());
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Factors `self` into a reusable [`LuWorkspace`], refactoring in the
    /// workspace's existing storage so repeated calls at the same dimension
    /// allocate nothing.
    ///
    /// The factorization (and everything solved through it) is bit-identical
    /// to [`Matrix::lu`]. On `Err` the workspace contents are unspecified and
    /// must be refilled by a successful call before solving.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::lu`].
    pub fn lu_into(&self, ws: &mut LuWorkspace<T>) -> Result<(), MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare);
        }
        ws.lu.copy_from(self);
        ws.sign = lu_factor_in_place(&mut ws.lu, &mut ws.perm, &mut ws.scale)?;
        #[cfg(feature = "numsan")]
        if self.as_slice().iter().all(|v| !v.modulus().is_nan())
            && ws.lu.as_slice().iter().any(|v| v.modulus().is_nan())
        {
            crate::numsan::fail("Matrix::lu_into", "NaN", &[], file!(), line!());
        }
        Ok(())
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; also returns
    /// [`MatrixError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, MatrixError> {
        if b.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (b.len(), 1),
            });
        }
        Ok(self.lu()?.solve(b))
    }

    /// Solves `A X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; also returns
    /// [`MatrixError::DimensionMismatch`] when row counts differ.
    pub fn solve_matrix(&self, b: &Self) -> Result<Self, MatrixError> {
        if b.rows != self.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (b.rows, b.cols),
            });
        }
        let lu = self.lu()?;
        let mut out = Matrix::zeros(b.rows, b.cols);
        let mut col = vec![T::ZERO; b.rows];
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b[(i, j)];
            }
            let x = lu.solve(&col);
            for i in 0..b.rows {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Matrix inverse.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Singular`] / [`MatrixError::NotSquare`] like
    /// [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Self, MatrixError> {
        self.solve_matrix(&Matrix::identity(self.rows))
    }

    /// Determinant via LU.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square matrices. A singular
    /// matrix yields `Ok(0)`.
    pub fn det(&self) -> Result<T, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare);
        }
        match self.lu() {
            Ok(lu) => {
                let mut d = if lu.sign > 0 { T::ONE } else { -T::ONE };
                for i in 0..self.rows {
                    d = d * lu.lu[(i, i)];
                }
                Ok(d)
            }
            Err(MatrixError::Singular { .. }) => Ok(T::ZERO),
            Err(e) => Err(e),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| {
                let m = x.modulus();
                m * m
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Extracts the square submatrix keeping the listed row/col indices —
    /// used for Schur-complement port reduction in MNA.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Self {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    // --- In-place variants for allocation-free hot loops -----------------
    //
    // Each method below produces bit-identical results to its allocating
    // counterpart (same kernels, same evaluation order) but writes into
    // caller-owned storage, reusing the existing heap allocation whenever
    // capacity allows. They exist for the AC fast path, where a band sweep
    // calls them thousands of times at fixed dimensions.

    /// Reshapes to `rows × cols` and zero-fills, reusing the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Reshapes to the `n × n` identity, reusing the allocation. In-place
    /// variant of [`Matrix::identity`].
    pub fn reset_identity(&mut self, n: usize) {
        self.reset(n, n);
        for i in 0..n {
            self[(i, i)] = T::ONE;
        }
    }

    /// Becomes a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// In-place variant of [`Matrix::submatrix`]: gathers the rows/columns
    /// of `src` listed in `row_idx`/`col_idx` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_from(&mut self, src: &Self, row_idx: &[usize], col_idx: &[usize]) {
        self.rows = row_idx.len();
        self.cols = col_idx.len();
        self.data.clear();
        for &r in row_idx {
            let src_row = &src.data[r * src.cols..(r + 1) * src.cols];
            self.data.extend(col_idx.iter().map(|&c| src_row[c]));
        }
    }

    /// In-place variant of [`Matrix::scaled`]: `out = self · k` entry-wise.
    pub fn scaled_into(&self, k: T, out: &mut Self) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&x| x * k));
    }

    /// In-place elementwise sum: `out = self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ (like `&a + &b`).
    pub fn add_into(&self, rhs: &Self, out: &mut Self) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b));
    }

    /// In-place elementwise difference: `out = self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ (like `&a - &b`).
    pub fn sub_into(&self, rhs: &Self, out: &mut Self) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b));
    }

    /// In-place variant of [`Matrix::matmul`]: `out = self · rhs`, same
    /// zero-skip kernel.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when inner dimensions
    /// differ.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<(), MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        out.reset(self.rows, rhs.cols);
        let rc = rhs.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rc..(i + 1) * rc];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == T::ZERO {
                    continue;
                }
                let rhs_row = &rhs.data[k * rc..(k + 1) * rc];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o = *o + aik * r;
                }
            }
        }
        Ok(())
    }
}

/// Shared factorization kernel: factors `lu` in place with implicit scaled
/// partial pivoting, fills `perm`/`scale` (cleared first, allocations
/// reused) and returns the permutation sign. Scale factors keep badly
/// scaled MNA matrices (ohms next to farads) well conditioned.
///
/// Pivot selection compares **squared** magnitudes against squared row
/// scales — the same argmax as the textbook `|z|·s` metric (squaring is
/// monotone on non-negatives) without a square root per candidate, which
/// dominates small-matrix factorization cost. When any row's squared
/// magnitude leaves the representable range (entries beyond ~1e±154,
/// far outside circuit values), the whole factorization falls back to
/// the overflow-proof `modulus()` metric.
fn lu_factor_in_place<T: Scalar>(
    lu: &mut Matrix<T>,
    perm: &mut Vec<usize>,
    scale: &mut Vec<f64>,
) -> Result<i32, MatrixError> {
    debug_assert_eq!(lu.rows, lu.cols, "factorization kernel needs square input");
    let n = lu.rows;
    perm.clear();
    perm.extend(0..n);
    scale.clear();
    scale.resize(n, 0.0);
    for i in 0..n {
        let row = &lu.data[i * n..(i + 1) * n];
        let mut big2 = 0.0f64;
        for &v in row {
            big2 = big2.max(v.modulus_sq());
        }
        let squared_range_ok =
            big2.is_finite() && (!is_exact_zero(big2) || row.iter().all(|&v| v == T::ZERO));
        if !squared_range_ok {
            // Extreme magnitudes: redo every scale with the robust metric.
            for (r, (row, s)) in lu.data.chunks_exact(n).zip(scale.iter_mut()).enumerate() {
                let mut big = 0.0f64;
                for &v in row {
                    big = big.max(v.modulus());
                }
                if is_exact_zero(big) {
                    return Err(MatrixError::Singular { pivot: r });
                }
                *s = 1.0 / big;
            }
            return factor_core(&mut lu.data, n, perm, scale, T::modulus);
        }
        if is_exact_zero(big2) {
            return Err(MatrixError::Singular { pivot: i });
        }
        scale[i] = 1.0 / big2;
    }
    factor_core(&mut lu.data, n, perm, scale, T::modulus_sq)
}

/// Elimination core shared by both pivot metrics. `scale[i]` must be the
/// reciprocal of row `i`'s maximum under the same `metric`.
fn factor_core<T: Scalar>(
    data: &mut [T],
    n: usize,
    perm: &mut [usize],
    scale: &mut [f64],
    metric: impl Fn(T) -> f64,
) -> Result<i32, MatrixError> {
    let mut sign = 1i32;
    for k in 0..n {
        // Find pivot.
        let mut pivot_row = k;
        let mut best = 0.0;
        for i in k..n {
            let m = metric(data[i * n + k]) * scale[i];
            if m > best {
                best = m;
                pivot_row = i;
            }
        }
        if data[pivot_row * n + k] == T::ZERO {
            return Err(MatrixError::Singular { pivot: k });
        }
        if pivot_row != k {
            let (head, tail) = data.split_at_mut(pivot_row * n);
            head[k * n..(k + 1) * n].swap_with_slice(&mut tail[..n]);
            perm.swap(k, pivot_row);
            scale.swap(k, pivot_row);
            sign = -sign;
        }
        // Eliminate below the pivot, row by row over contiguous slices.
        let pivot = data[k * n + k];
        let (head, below) = data.split_at_mut((k + 1) * n);
        let row_k = &head[k * n + k + 1..(k + 1) * n];
        for row_i in below.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            for (x, &u) in row_i[k + 1..].iter_mut().zip(row_k) {
                *x = *x - factor * u;
            }
        }
    }
    Ok(sign)
}

/// Forward/back substitution against a factored matrix. `x` arrives
/// already permuted and leaves holding the solution.
fn lu_substitute_in_place<T: Scalar>(lu: &Matrix<T>, x: &mut [T]) {
    let n = lu.rows;
    for i in 1..n {
        let row = &lu.data[i * n..i * n + i];
        let mut acc = x[i];
        for (&l, &xj) in row.iter().zip(x.iter()) {
            acc = acc - l * xj;
        }
        x[i] = acc;
    }
    for i in (0..n).rev() {
        let row = &lu.data[i * n..(i + 1) * n];
        let mut acc = x[i];
        for (&l, &xj) in row[i + 1..].iter().zip(x[i + 1..].iter()) {
            acc = acc - l * xj;
        }
        x[i] = acc / row[i];
    }
}

impl<T: Scalar> Default for Matrix<T> {
    /// The empty `0 × 0` matrix — a placeholder for workspace buffers that
    /// are sized on first use via [`Matrix::reset`] / [`Matrix::copy_from`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// LU factorization produced by [`Matrix::lu`]; solves against many RHS
/// without refactorizing.
#[derive(Debug, Clone)]
pub struct Lu<T: Scalar> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    sign: i32,
}

impl<T: Scalar> Lu<T> {
    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation then forward/back substitution.
        let mut x: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        lu_substitute_in_place(&self.lu, &mut x);
        #[cfg(feature = "numsan")]
        if self.lu.as_slice().iter().all(|v| !v.modulus().is_nan())
            && b.iter().all(|v| !v.modulus().is_nan())
            && x.iter().any(|v| v.modulus().is_nan())
        {
            crate::numsan::fail("Lu::solve", "NaN", &[], file!(), line!());
        }
        x
    }
}

/// Reusable LU factorization workspace for [`Matrix::lu_into`].
///
/// Where [`Matrix::lu`] allocates a fresh [`Lu`] per factorization, this
/// workspace refactors into the same storage every call and solves into
/// caller-owned buffers, so a hot loop (e.g. one AC solve per frequency
/// point) performs zero heap allocations after the first factorization at
/// a given dimension. All results are bit-identical to the allocating
/// paths: the factor and substitution kernels are shared.
#[derive(Debug, Clone)]
pub struct LuWorkspace<T: Scalar> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    scale: Vec<f64>,
    sign: i32,
}

impl<T: Scalar> LuWorkspace<T> {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LuWorkspace {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            scale: Vec::new(),
            sign: 1,
        }
    }

    /// Dimension of the currently stored factorization.
    pub fn dim(&self) -> usize {
        self.lu.rows
    }

    /// Permutation sign of the stored factorization (for determinants).
    pub fn sign(&self) -> i32 {
        self.sign
    }

    /// Solves `A x = b` into `x`, reusing its allocation. Bit-identical to
    /// [`Lu::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "rhs length mismatch");
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        lu_substitute_in_place(&self.lu, x);
        #[cfg(feature = "numsan")]
        if self.lu.as_slice().iter().all(|v| !v.modulus().is_nan())
            && b.iter().all(|v| !v.modulus().is_nan())
            && x.iter().any(|v| v.modulus().is_nan())
        {
            crate::numsan::fail("LuWorkspace::solve_into", "NaN", &[], file!(), line!());
        }
    }

    /// Multi-RHS solve `A X = B` into `out`, with `x` as a reusable column
    /// scratch buffer. Bit-identical to [`Matrix::solve_matrix`] (and,
    /// with an identity `B`, to [`Matrix::inverse`]): each column is
    /// gathered through the row permutation and substituted in place —
    /// the same values the legacy per-column copy produced, without the
    /// staging pass.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when `b.rows()` differs
    /// from the factored dimension.
    pub fn solve_matrix_into(
        &self,
        b: &Matrix<T>,
        out: &mut Matrix<T>,
        x: &mut Vec<T>,
    ) -> Result<(), MatrixError> {
        let n = self.lu.rows;
        if b.rows != n {
            return Err(MatrixError::DimensionMismatch {
                left: (n, n),
                right: (b.rows, b.cols),
            });
        }
        out.reset(b.rows, b.cols);
        for j in 0..b.cols {
            x.clear();
            x.extend(self.perm.iter().map(|&p| b.data[p * b.cols + j]));
            lu_substitute_in_place(&self.lu, x);
            for (i, &v) in x.iter().enumerate() {
                out.data[i * out.cols + j] = v;
            }
        }
        #[cfg(feature = "numsan")]
        if self.lu.as_slice().iter().all(|v| !v.modulus().is_nan())
            && b.as_slice().iter().all(|v| !v.modulus().is_nan())
            && out.as_slice().iter().any(|v| v.modulus().is_nan())
        {
            crate::numsan::fail(
                "LuWorkspace::solve_matrix_into",
                "NaN",
                &[],
                file!(),
                line!(),
            );
        }
        Ok(())
    }
}

impl<T: Scalar> Default for LuWorkspace<T> {
    fn default() -> Self {
        LuWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = RMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = RMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, RMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = RMatrix::zeros(2, 3);
        let b = RMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_real_system() {
        let a = RMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_complex_system() {
        let a = CMatrix::from_rows(&[
            &[cx(2.0, 1.0), cx(0.0, -1.0)],
            &[cx(1.0, 0.0), cx(3.0, 2.0)],
        ]);
        let x_true = vec![cx(1.0, 1.0), cx(-2.0, 0.5)];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detection() {
        let a = RMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        // Rank-1: elimination breaks down at the second pivot column, and
        // the error says so.
        assert_eq!(
            a.solve(&[1.0, 1.0]),
            Err(MatrixError::Singular { pivot: 1 })
        );
        assert_eq!(a.det().unwrap(), 0.0);
        // All-zero: the very first row has no scale.
        let z = RMatrix::zeros(2, 2);
        assert_eq!(z.lu().unwrap_err(), MatrixError::Singular { pivot: 0 });
    }

    #[test]
    fn singular_pivot_provenance_names_the_broken_unknown() {
        // A 3x3 with an all-zero *last* row: the scale scan reports row 2.
        let a = RMatrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 0.0]]);
        assert_eq!(a.lu().unwrap_err(), MatrixError::Singular { pivot: 2 });
        // Duplicated columns 1 and 2: rows all have scale, elimination
        // dies at pivot column 2.
        let b = RMatrix::from_rows(&[&[1.0, 2.0, 2.0], &[0.0, 1.0, 1.0], &[0.0, 3.0, 3.0]]);
        assert_eq!(b.lu().unwrap_err(), MatrixError::Singular { pivot: 2 });
        let msg = b.lu().unwrap_err().to_string();
        assert!(msg.contains("pivot 2"), "{msg}");
    }

    #[test]
    fn inverse_roundtrip() {
        let a = CMatrix::from_rows(&[
            &[cx(1.0, 0.5), cx(2.0, -1.0)],
            &[cx(0.0, 1.0), cx(1.0, 1.0)],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let id = CMatrix::identity(2);
        assert!((&prod - &id).frobenius_norm() < 1e-12);
    }

    #[test]
    fn det_of_triangular_is_diagonal_product() {
        let a = RMatrix::from_rows(&[&[2.0, 5.0, 1.0], &[0.0, 3.0, 7.0], &[0.0, 0.0, -4.0]]);
        assert!((a.det().unwrap() - (-24.0)).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        // Swapping two rows of identity gives det = -1.
        let a = RMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((a.det().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjoint_conjugates() {
        let a = CMatrix::from_rows(&[&[cx(1.0, 2.0), cx(3.0, -4.0)]]);
        let h = a.adjoint();
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 1);
        assert_eq!(h[(0, 0)], cx(1.0, -2.0));
        assert_eq!(h[(1, 0)], cx(3.0, 4.0));
    }

    #[test]
    fn congruence_preserves_hermitian() {
        let c = CMatrix::from_rows(&[
            &[cx(2.0, 0.0), cx(0.5, 0.3)],
            &[cx(0.5, -0.3), cx(1.0, 0.0)],
        ]);
        let t = CMatrix::from_rows(&[
            &[cx(1.0, 1.0), cx(0.0, 0.0)],
            &[cx(0.2, -0.1), cx(2.0, 0.0)],
        ]);
        let out = c.congruence(&t).unwrap();
        // result must be Hermitian
        assert!((out[(0, 1)] - out[(1, 0)].conj()).abs() < 1e-13);
        assert!(out[(0, 0)].im.abs() < 1e-13);
        assert!(out[(1, 1)].im.abs() < 1e-13);
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = RMatrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = a.lu().unwrap();
        let x1 = lu.solve(&[4.0, 3.0]);
        let x2 = lu.solve(&[1.0, 0.0]);
        assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 1.0).abs() < 1e-12);
        let r = a.matvec(&x2);
        assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12);
    }

    #[test]
    fn solve_matrix_matches_columnwise() {
        let a = RMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = RMatrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]);
        let x = a.solve_matrix(&b).unwrap();
        assert_eq!(x, RMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]));
    }

    #[test]
    fn submatrix_extraction() {
        let a = RMatrix::from_fn(3, 3, |i, j| (3 * i + j) as f64);
        let s = a.submatrix(&[0, 2], &[1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 1);
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(1, 0)], 7.0);
    }

    #[test]
    fn badly_scaled_system_solves() {
        // Entries spanning 12 orders of magnitude, as in MNA with pF and kΩ.
        let a = RMatrix::from_rows(&[&[1e-12, 1.0], &[1.0, 1e3]]);
        let x_true = [2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn frobenius_norm() {
        let a = CMatrix::from_rows(&[&[cx(3.0, 4.0)]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
    }

    /// A complex 3×3 with mixed magnitudes that forces pivoting.
    fn pivoting_complex() -> CMatrix {
        CMatrix::from_rows(&[
            &[cx(1e-9, 2e-9), cx(1.0, -0.5), cx(0.0, 3.0)],
            &[cx(2.0, 1.0), cx(1e-6, 0.0), cx(-1.0, 0.25)],
            &[cx(0.5, -2.0), cx(4.0, 4.0), cx(1e3, -1e2)],
        ])
    }

    #[test]
    fn lu_into_bit_identical_to_lu() {
        let a = pivoting_complex();
        let lu = a.lu().unwrap();
        let mut ws = LuWorkspace::new();
        a.lu_into(&mut ws).unwrap();
        assert_eq!(ws.lu, lu.lu);
        assert_eq!(ws.perm, lu.perm);
        assert_eq!(ws.sign(), lu.sign);
        let b = vec![cx(1.0, -2.0), cx(0.5, 0.25), cx(-3.0, 1.0)];
        let mut x_ws = Vec::new();
        ws.solve_into(&b, &mut x_ws);
        assert_eq!(lu.solve(&b), x_ws);
    }

    #[test]
    fn solve_matrix_into_bit_identical_and_reuses_buffers() {
        let a = pivoting_complex();
        let b = CMatrix::from_fn(3, 2, |i, j| cx(i as f64 + 0.5, j as f64 - 1.0));
        let legacy = a.solve_matrix(&b).unwrap();
        let mut ws = LuWorkspace::new();
        let mut out = CMatrix::zeros(0, 0);
        let mut x = Vec::new();
        a.lu_into(&mut ws).unwrap();
        ws.solve_matrix_into(&b, &mut out, &mut x).unwrap();
        assert_eq!(legacy, out);
        // A second factor+solve round at the same dimension must not grow
        // any buffer: capacities are the allocation proxy.
        let caps = (out.data.capacity(), ws.lu.data.capacity(), x.capacity());
        a.lu_into(&mut ws).unwrap();
        ws.solve_matrix_into(&b, &mut out, &mut x).unwrap();
        assert_eq!(
            caps,
            (out.data.capacity(), ws.lu.data.capacity(), x.capacity())
        );
        assert_eq!(legacy, out);
    }

    #[test]
    fn workspace_inverse_bit_identical() {
        let a = pivoting_complex();
        let inv = a.inverse().unwrap();
        let mut ws = LuWorkspace::new();
        a.lu_into(&mut ws).unwrap();
        let mut id = CMatrix::zeros(0, 0);
        id.reset_identity(3);
        let mut out = CMatrix::zeros(0, 0);
        let mut x = Vec::new();
        ws.solve_matrix_into(&id, &mut out, &mut x).unwrap();
        assert_eq!(inv, out);
    }

    #[test]
    fn lu_into_error_parity() {
        let singular = RMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut ws = LuWorkspace::new();
        assert_eq!(
            singular.lu_into(&mut ws),
            Err(MatrixError::Singular { pivot: 1 })
        );
        let rect = RMatrix::zeros(2, 3);
        assert_eq!(rect.lu_into(&mut ws), Err(MatrixError::NotSquare));
        assert_eq!(rect.lu().unwrap_err(), MatrixError::NotSquare);
    }

    #[test]
    fn in_place_helpers_match_allocating_ops() {
        let a = pivoting_complex();
        let b = CMatrix::from_fn(3, 3, |i, j| cx(j as f64 - 1.0, i as f64 * 0.5));
        let mut out = CMatrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.add_into(&b, &mut out);
        assert_eq!(out, &a + &b);
        a.sub_into(&b, &mut out);
        assert_eq!(out, &a - &b);
        a.scaled_into(cx(0.3, -0.7), &mut out);
        assert_eq!(out, a.scaled(cx(0.3, -0.7)));
        out.gather_from(&a, &[0, 2], &[1]);
        assert_eq!(out, a.submatrix(&[0, 2], &[1]));
        out.reset_identity(3);
        assert_eq!(out, CMatrix::identity(3));
        out.copy_from(&a);
        assert_eq!(out, a);
        let rect = CMatrix::zeros(2, 3);
        assert!(matches!(
            rect.matmul_into(&rect.clone(), &mut out),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reset_zero_fills_previous_contents() {
        let mut m = RMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.reset(2, 2);
        assert_eq!(m, RMatrix::zeros(2, 2));
        m.reset(1, 3);
        assert_eq!(m, RMatrix::zeros(1, 3));
    }
}

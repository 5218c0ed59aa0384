//! Borrowed, strided matrix and vector views plus allocation-free kernels.
//!
//! The fitting stack's inner loops (cross-validation sweeps, batch fits)
//! call the same handful of kernels thousands of times on sub-matrices of
//! one shared design matrix. Owned [`Matrix`] operations would copy those
//! sub-matrices and allocate fresh outputs on every call; the types here
//! let callers describe a sub-matrix *by reference* — including a
//! non-contiguous row subset, which is exactly what a cross-validation
//! fold is — and write results into caller-owned buffers.
//!
//! Every `_into` kernel is **bit-identical** to its owned counterpart on
//! [`Matrix`]: same loop order, same skip conditions, same accumulation
//! order. The owned methods are thin wrappers over these kernels, and the
//! property tests in `tests/view_properties.rs` pin the equivalence with
//! `f64::to_bits` comparisons. See DESIGN.md §9 for the memory model.
//!
//! # Aliasing rules
//!
//! All views are plain borrows, so Rust's borrow checker enforces the only
//! rule that matters: an output buffer can never alias an input view.
//! Every `_into` kernel fully overwrites its output (zero-filling first
//! where the owned kernel accumulated into a fresh zero matrix), so stale
//! workspace contents never leak into results.

use crate::{LinalgError, Matrix, Result};

/// An immutable view of a row-major `f64` matrix.
///
/// A view is a `Copy` handle onto storage owned elsewhere: the backing
/// slice, the shape, a row stride, and optionally a row-index table that
/// maps view rows onto backing rows (used for cross-validation folds).
/// Columns are always contiguous within a row, which is the only layout
/// the kernels need.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    row_stride: usize,
    /// When present, view row `i` reads backing row `rows[i]`.
    rows: Option<&'a [usize]>,
}

impl<'a> MatRef<'a> {
    /// Views an owned [`Matrix`] (equivalently [`Matrix::as_view`]).
    pub fn from_matrix(m: &'a Matrix) -> Self {
        MatRef {
            data: m.as_slice(),
            nrows: m.nrows(),
            ncols: m.ncols(),
            row_stride: m.ncols(),
            rows: None,
        }
    }

    /// Views a dense row-major slice as an `nrows × ncols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() !=
    /// nrows * ncols`.
    pub fn from_row_major(data: &'a [f64], nrows: usize, ncols: usize) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "MatRef::from_row_major",
                lhs: (nrows, ncols),
                rhs: (data.len(), 1),
            });
        }
        Ok(MatRef {
            data,
            nrows,
            ncols,
            row_stride: ncols,
            rows: None,
        })
    }

    /// Views a strided slice: row `i` occupies
    /// `data[i * row_stride .. i * row_stride + ncols]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `row_stride <
    /// ncols` or the last row would run past the end of `data`.
    pub fn strided(data: &'a [f64], nrows: usize, ncols: usize, row_stride: usize) -> Result<Self> {
        let span = if nrows == 0 {
            0
        } else {
            (nrows - 1) * row_stride + ncols
        };
        if row_stride < ncols || data.len() < span {
            return Err(LinalgError::DimensionMismatch {
                op: "MatRef::strided",
                lhs: (nrows, row_stride),
                rhs: (data.len(), ncols),
            });
        }
        Ok(MatRef {
            data,
            nrows,
            ncols,
            row_stride,
            rows: None,
        })
    }

    /// Restricts the view to the given backing rows, in order (view row
    /// `i` becomes backing row `rows[i]`). This is how a cross-validation
    /// fold borrows its train/validate sub-matrix without copying.
    ///
    /// # Panics
    ///
    /// Panics when the view already has a row-index table (composing
    /// subsets would need an allocation — take the subset of the dense
    /// parent instead) or when any index is out of bounds.
    pub fn select_rows(self, rows: &'a [usize]) -> MatRef<'a> {
        assert!(
            self.rows.is_none(),
            "select_rows on an already row-indexed view"
        );
        for &r in rows {
            assert!(
                r < self.nrows,
                "row index {r} out of bounds ({})",
                self.nrows
            );
        }
        MatRef {
            data: self.data,
            nrows: rows.len(),
            ncols: self.ncols,
            row_stride: self.row_stride,
            rows: Some(rows),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(
            i < self.nrows,
            "row index {i} out of bounds ({})",
            self.nrows
        );
        let r = self.rows.map_or(i, |idx| idx[i]);
        &self.data[r * self.row_stride..r * self.row_stride + self.ncols]
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            j < self.ncols,
            "col index {j} out of bounds ({})",
            self.ncols
        );
        self.row(i)[j]
    }

    /// Returns `true` when every viewed element is finite.
    pub fn is_finite(&self) -> bool {
        (0..self.nrows).all(|i| self.row(i).iter().all(|x| x.is_finite()))
    }

    /// Copies the viewed elements into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.nrows, self.ncols, |i, j| self.row(i)[j])
    }
}

/// A mutable view of a dense row-major `f64` matrix.
///
/// Outputs are always dense (no stride, no row table): kernels write
/// complete results, and the workspace types that own the backing buffers
/// hand them out one kernel call at a time.
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f64],
    nrows: usize,
    ncols: usize,
}

impl<'a> MatMut<'a> {
    /// Mutably views an owned [`Matrix`] (equivalently
    /// [`Matrix::as_view_mut`]).
    pub fn from_matrix(m: &'a mut Matrix) -> Self {
        let (nrows, ncols) = m.shape();
        MatMut {
            data: m.as_mut_slice(),
            nrows,
            ncols,
        }
    }

    /// Mutably views a dense row-major slice as `nrows × ncols`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() !=
    /// nrows * ncols`.
    pub fn from_slice(data: &'a mut [f64], nrows: usize, ncols: usize) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "MatMut::from_slice",
                lhs: (nrows, ncols),
                rhs: (data.len(), 1),
            });
        }
        Ok(MatMut { data, nrows, ncols })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Borrows row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.nrows,
            "row index {i} out of bounds ({})",
            self.nrows
        );
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            row_stride: self.ncols,
            rows: None,
        }
    }
}

/// An immutable strided vector view.
#[derive(Debug, Clone, Copy)]
pub struct VecRef<'a> {
    data: &'a [f64],
    len: usize,
    stride: usize,
}

impl<'a> VecRef<'a> {
    /// Views a contiguous slice (stride 1).
    pub fn from_slice(data: &'a [f64]) -> Self {
        VecRef {
            len: data.len(),
            data,
            stride: 1,
        }
    }

    /// Views `len` elements spaced `stride` apart: element `i` is
    /// `data[i * stride]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `stride == 0` or
    /// the last element would run past the end of `data`.
    pub fn strided(data: &'a [f64], len: usize, stride: usize) -> Result<Self> {
        let span = if len == 0 { 0 } else { (len - 1) * stride + 1 };
        if stride == 0 || data.len() < span {
            return Err(LinalgError::DimensionMismatch {
                op: "VecRef::strided",
                lhs: (len, stride),
                rhs: (data.len(), 1),
            });
        }
        Ok(VecRef { data, len, stride })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.data[i * self.stride]
    }

    /// Iterates over the viewed elements in order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        let (data, stride) = (self.data, self.stride);
        (0..self.len).map(move |i| data[i * stride])
    }

    /// Dot product, accumulated in index order exactly like
    /// [`crate::Vector::dot`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: VecRef<'_>) -> Result<f64> {
        if self.len != other.len {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.len, 1),
                rhs: (other.len, 1),
            });
        }
        Ok(self.iter().zip(other.iter()).map(|(a, b)| a * b).sum())
    }

    /// Euclidean norm, accumulated exactly like [`crate::Vector::norm2`].
    pub fn norm2(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Copies the viewed elements into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// A mutable strided vector view.
#[derive(Debug)]
pub struct VecMut<'a> {
    data: &'a mut [f64],
    len: usize,
    stride: usize,
}

impl<'a> VecMut<'a> {
    /// Mutably views a contiguous slice (stride 1).
    pub fn from_slice(data: &'a mut [f64]) -> Self {
        VecMut {
            len: data.len(),
            data,
            stride: 1,
        }
    }

    /// Mutably views `len` elements spaced `stride` apart.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VecRef::strided`].
    pub fn strided(data: &'a mut [f64], len: usize, stride: usize) -> Result<Self> {
        let span = if len == 0 { 0 } else { (len - 1) * stride + 1 };
        if stride == 0 || data.len() < span {
            return Err(LinalgError::DimensionMismatch {
                op: "VecMut::strided",
                lhs: (len, stride),
                rhs: (data.len(), 1),
            });
        }
        Ok(VecMut { data, len, stride })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.data[i * self.stride]
    }

    /// Sets element `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: f64) {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.data[i * self.stride] = value;
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        for i in 0..self.len {
            self.data[i * self.stride] = value;
        }
    }

    /// Copies from `src` element by element.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn copy_from(&mut self, src: VecRef<'_>) -> Result<()> {
        if self.len != src.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "VecMut::copy_from",
                lhs: (self.len, 1),
                rhs: (src.len(), 1),
            });
        }
        for i in 0..self.len {
            self.data[i * self.stride] = src.get(i);
        }
        Ok(())
    }

    /// In-place `self += alpha * x`, elementwise in index order exactly
    /// like [`crate::Vector::axpy`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: VecRef<'_>) -> Result<()> {
        if self.len != x.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: (self.len, 1),
                rhs: (x.len(), 1),
            });
        }
        for i in 0..self.len {
            self.data[i * self.stride] += alpha * x.get(i);
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        for i in 0..self.len {
            self.data[i * self.stride] *= alpha;
        }
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> VecRef<'_> {
        VecRef {
            data: self.data,
            len: self.len,
            stride: self.stride,
        }
    }
}

/// Matrix–vector product `out = a * x`, writing into a caller buffer.
///
/// Bit-identical to [`Matrix::matvec`]: each output element is the same
/// left-to-right dot-product accumulation.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `x.len() != a.ncols()`
/// (op `"matvec"`, matching the owned kernel) or `out.len() !=
/// a.nrows()`.
pub fn matvec_into(a: MatRef<'_>, x: &[f64], out: &mut [f64]) -> Result<()> {
    if x.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    if out.len() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_into (out)",
            lhs: a.shape(),
            rhs: (out.len(), 1),
        });
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = a.row(i).iter().zip(x).map(|(p, q)| p * q).sum();
    }
    Ok(())
}

/// Transposed matrix–vector product `out = aᵀ * x`, writing into a caller
/// buffer (fully overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::matvec_transpose`], including the
/// skip-zero-row shortcut.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `x.len() != a.nrows()`
/// (op `"matvec_transpose"`) or `out.len() != a.ncols()`.
pub fn matvec_transpose_into(a: MatRef<'_>, x: &[f64], out: &mut [f64]) -> Result<()> {
    if x.len() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_transpose",
            lhs: (a.ncols(), a.nrows()),
            rhs: (x.len(), 1),
        });
    }
    if out.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec_transpose_into (out)",
            lhs: (a.ncols(), a.nrows()),
            rhs: (out.len(), 1),
        });
    }
    out.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if crate::fp::is_exact_zero(xi) {
            continue;
        }
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o += xi * v;
        }
    }
    Ok(())
}

/// Matrix product `out = a * b`, writing into a caller buffer (fully
/// overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::matmul`]: same i-k-j loop order and
/// skip-zero shortcut.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when inner dimensions
/// disagree (op `"matmul"`) or `out` is not `a.nrows() × b.ncols()`.
pub fn matmul_into(a: MatRef<'_>, b: MatRef<'_>, mut out: MatMut<'_>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (a.nrows(), b.ncols()) {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_into (out)",
            lhs: (a.nrows(), b.ncols()),
            rhs: out.shape(),
        });
    }
    out.fill(0.0);
    for i in 0..a.nrows() {
        let arow = a.row(i);
        for (k, &aik) in arow.iter().enumerate() {
            if crate::fp::is_exact_zero(aik) {
                continue;
            }
            let brow = b.row(k);
            let orow = out.row_mut(i);
            for (o, &v) in orow.iter_mut().zip(brow) {
                *o += aik * v;
            }
        }
    }
    Ok(())
}

/// Gram matrix `out = aᵀ * a`, writing into a caller buffer (fully
/// overwritten: zero-filled before accumulation).
///
/// Bit-identical to [`Matrix::gram`]: row-by-row rank-1 accumulation of
/// the upper triangle, then mirroring.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `out` is not
/// `a.ncols() × a.ncols()`.
pub fn gram_into(a: MatRef<'_>, mut out: MatMut<'_>) -> Result<()> {
    let m = a.ncols();
    if out.shape() != (m, m) {
        return Err(LinalgError::DimensionMismatch {
            op: "gram_into (out)",
            lhs: (m, m),
            rhs: out.shape(),
        });
    }
    out.fill(0.0);
    for k in 0..a.nrows() {
        let r = a.row(k);
        for i in 0..m {
            let ri = r[i];
            if crate::fp::is_exact_zero(ri) {
                continue;
            }
            let orow = out.row_mut(i);
            for j in i..m {
                orow[j] += ri * r[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..m {
        for j in (i + 1)..m {
            let v = out.row_mut(i)[j];
            out.row_mut(j)[i] = v;
        }
    }
    Ok(())
}

/// Outer Gram matrix `out = a * D * aᵀ` for diagonal `D`, writing into a
/// caller buffer (every element written, so no zero-fill is needed).
///
/// Bit-identical to [`Matrix::outer_gram_diag`].
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when `diag.len() !=
/// a.ncols()` (op `"outer_gram_diag"`) or `out` is not
/// `a.nrows() × a.nrows()`.
pub fn outer_gram_diag_into(a: MatRef<'_>, diag: &[f64], mut out: MatMut<'_>) -> Result<()> {
    if diag.len() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_diag",
            lhs: a.shape(),
            rhs: (diag.len(), 1),
        });
    }
    let k = a.nrows();
    if out.shape() != (k, k) {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_diag_into (out)",
            lhs: (k, k),
            rhs: out.shape(),
        });
    }
    for i in 0..k {
        let ri = a.row(i);
        for j in i..k {
            let rj = a.row(j);
            let s = dot3(ri, rj, diag);
            out.row_mut(i)[j] = s;
            out.row_mut(j)[i] = s;
        }
    }
    Ok(())
}

/// Outer Gram matrix `out = a_C · a_Cᵀ` over the column subset `cols`
/// (ascending), writing into a caller buffer (every element written).
///
/// Bitwise equal to [`outer_gram_diag_into`] with the 0/1 indicator of
/// `cols` as the diagonal whenever every product `a[i][c]·a[j][c]` is
/// finite: an indicator-1 term `p·q·1` is exactly `p·q`, and an
/// indicator-0 term is `±0`, which leaves a sum that starts at `+0`
/// unchanged. The cost is Θ(K²·|C|) instead of Θ(K²·M).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when a column index is out
/// of bounds or `out` is not `a.nrows() × a.nrows()`.
pub fn outer_gram_cols_into(a: MatRef<'_>, cols: &[usize], mut out: MatMut<'_>) -> Result<()> {
    if let Some(&c) = cols.iter().find(|&&c| c >= a.ncols()) {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_cols",
            lhs: a.shape(),
            rhs: (c, 1),
        });
    }
    let k = a.nrows();
    if out.shape() != (k, k) {
        return Err(LinalgError::DimensionMismatch {
            op: "outer_gram_cols_into (out)",
            lhs: (k, k),
            rhs: out.shape(),
        });
    }
    for i in 0..k {
        let ri = a.row(i);
        for j in i..k {
            let rj = a.row(j);
            let mut s = 0.0;
            for &c in cols {
                s += ri[c] * rj[c];
            }
            out.row_mut(i)[j] = s;
            out.row_mut(j)[i] = s;
        }
    }
    Ok(())
}

/// Diagonally weighted dot product `Σᵢ a[i]·b[i]·diag[i]`, accumulated
/// left to right with the exact multiply order of
/// [`outer_gram_diag_into`]'s inner loop (of which this is the extracted
/// kernel — one entry of `A·D·Aᵀ`). The sequential fitting engine uses it
/// to grow the Woodbury core one row at a time with entries bit-identical
/// to the batch-assembled matrix.
///
/// Iteration stops at the shortest of the three slices, mirroring the
/// `zip` the matrix kernel has always used; callers screen lengths at
/// their own boundary.
pub fn dot3(a: &[f64], b: &[f64], diag: &[f64]) -> f64 {
    let mut s = 0.0;
    for ((p, q), d) in a.iter().zip(b).zip(diag) {
        s += p * q * d;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap()
    }

    #[test]
    fn dense_view_mirrors_matrix() {
        let m = sample();
        let v = m.as_view();
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(1), m.row(1));
        assert_eq!(v.get(2, 0), 7.0);
        assert_eq!(v.to_matrix(), m);
    }

    #[test]
    fn row_subset_view_resolves_indices() {
        let m = sample();
        let idx = [2usize, 0];
        let v = m.rows_view(&idx);
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(v.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn strided_view_skips_columns() {
        // A 2x2 window (first two columns) of a 2x3 buffer.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::strided(&data, 2, 2, 3).unwrap();
        assert_eq!(v.row(0), &[1.0, 2.0]);
        assert_eq!(v.row(1), &[4.0, 5.0]);
        assert!(MatRef::strided(&data, 2, 4, 3).is_err());
    }

    #[test]
    fn matvec_into_matches_owned() {
        let m = sample();
        let x = crate::Vector::from(vec![1.0, -1.0, 2.0]);
        let owned = m.matvec(&x).unwrap();
        let mut out = vec![f64::NAN; 3];
        matvec_into(m.as_view(), x.as_slice(), &mut out).unwrap();
        assert_eq!(out, owned.as_slice());
    }

    #[test]
    fn matvec_transpose_into_overwrites_stale_output() {
        let m = sample();
        let x = crate::Vector::from(vec![0.5, 0.0, -1.5]);
        let owned = m.matvec_transpose(&x).unwrap();
        let mut out = vec![f64::NAN; 3];
        matvec_transpose_into(m.as_view(), x.as_slice(), &mut out).unwrap();
        assert_eq!(out, owned.as_slice());
    }

    #[test]
    fn gram_into_on_row_subset_matches_copied_submatrix() {
        let m = sample();
        let idx = [0usize, 2];
        let copied = Matrix::from_fn(2, 3, |i, j| m[(idx[i], j)]);
        let mut out = Matrix::zeros(3, 3);
        gram_into(m.rows_view(&idx), out.as_view_mut()).unwrap();
        assert_eq!(out, copied.gram());
    }

    #[test]
    fn matmul_into_matches_owned() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let owned = a.matmul(&b).unwrap();
        let mut out = Matrix::zeros(3, 2);
        matmul_into(a.as_view(), b.as_view(), out.as_view_mut()).unwrap();
        assert_eq!(out, owned);
    }

    #[test]
    fn outer_gram_diag_into_matches_owned() {
        let m = sample();
        let d = [0.5, 2.0, 1.0];
        let owned = m.outer_gram_diag(&d).unwrap();
        let mut out = Matrix::zeros(3, 3);
        outer_gram_diag_into(m.as_view(), &d, out.as_view_mut()).unwrap();
        assert_eq!(out, owned);
    }

    #[test]
    fn vec_views_stride_and_reduce() {
        let data = [1.0, 9.0, 2.0, 9.0, 3.0];
        let v = VecRef::strided(&data, 3, 2).unwrap();
        assert_eq!(v.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(v.dot(VecRef::from_slice(&[1.0, 1.0, 1.0])).unwrap(), 6.0);
        assert_eq!(v.norm2(), 14.0f64.sqrt());

        let mut buf = [0.0; 5];
        let mut w = VecMut::strided(&mut buf, 3, 2).unwrap();
        w.copy_from(v).unwrap();
        w.axpy(2.0, VecRef::from_slice(&[1.0, 1.0, 1.0])).unwrap();
        w.scale_mut(0.5);
        assert_eq!(buf, [1.5, 0.0, 2.0, 0.0, 2.5]);
    }

    #[test]
    fn dimension_errors_are_reported() {
        let m = sample();
        let mut out3 = vec![0.0; 3];
        let mut out2 = vec![0.0; 2];
        assert!(matvec_into(m.as_view(), &[1.0; 2], &mut out3).is_err());
        assert!(matvec_into(m.as_view(), &[1.0; 3], &mut out2).is_err());
        let mut bad = Matrix::zeros(2, 2);
        assert!(gram_into(m.as_view(), bad.as_view_mut()).is_err());
        assert!(outer_gram_diag_into(m.as_view(), &[1.0; 2], bad.as_view_mut()).is_err());
    }

    #[test]
    #[should_panic(expected = "already row-indexed")]
    fn nested_row_subsets_panic() {
        let m = sample();
        let idx = [0usize, 1];
        let v = m.rows_view(&idx);
        let _ = v.select_rows(&idx);
    }
}

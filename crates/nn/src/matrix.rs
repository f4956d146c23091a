//! Dense row-major `f32` matrix — the single tensor type of the autograd
//! engine. Circuits batch nodes per logic level, so everything the model
//! computes is a 2-D `(rows = nodes/edges, cols = features)` array.

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// # Example
/// ```
/// use deepseq_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The row-major data buffer, for reuse as another matrix's storage.
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`, dispatched through the process-wide
    /// default [`Kernel::global`](crate::Kernel::global) (`blocked` unless
    /// `DEEPSEQ_KERNEL` names `naive`, which computes the same bits — see
    /// [`crate::kernels`]). It is the one product on `Matrix`: writing into
    /// a reused output, adding into an existing matrix and `aᵀ × b` are
    /// [`Kernel`](crate::Kernel) methods, and `a × bᵀ` is
    /// `a.matmul(&b.transpose())`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::kernels::Kernel::global().matmul(self, other)
    }

    /// Reshapes to `rows×cols` and zero-fills, reusing the existing
    /// allocation when it is large enough. This is what lets the tape-free
    /// inference path in `deepseq-serve` run on preallocated scratch
    /// buffers instead of allocating per level.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary zip into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other` in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Broadcast-adds a `1×c` bias row to every row in place.
    ///
    /// # Panics
    /// Panics if `row` is not `1×cols`.
    pub fn add_row_assign(&mut self, row: &Matrix) {
        let c = self.cols;
        assert_eq!(row.shape(), (1, c), "add_row_assign needs 1x{c}");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(row.row(0)) {
                *o += b;
            }
        }
    }

    /// Scales in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean absolute value of all elements.
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|x| x.abs()).sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:+.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.matmul(&Matrix::eye(4)), a);
        assert_eq!(Matrix::eye(4).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn map_zip_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::from_rows(&[&[4.0, 2.0]]));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean_abs(), 2.5);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_access() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.get(1, 2), 3.0);
    }

    #[test]
    fn from_vec_checks_len() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn display_not_empty() {
        let m = Matrix::zeros(1, 1);
        assert!(!m.to_string().is_empty());
    }
}

//! A minimal row-major dense matrix for transportation cost tables.
//! Deliberately small: only what the solver needs, with bounds checks in
//! debug builds and `get`/`set` inlined.

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Builds a matrix by evaluating `f(i, j)` at every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
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

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to the value at `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// A view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius-style elementwise dot product `Σ a_ij · b_ij`; the objective
    /// value `Σ c_ij f_ij` of Definition 1 for a cost and a flow matrix.
    pub fn dot(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Raw data in row-major order.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_indexes_correctly() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn set_add_total() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 3.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 1.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.total(), 6.0);
    }

    #[test]
    fn dot_is_elementwise() {
        let a = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = DenseMatrix::filled(2, 2, 2.0);
        assert_eq!(a.dot(&b), 2.0 * (0.0 + 1.0 + 1.0 + 2.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dot_rejects_shape_mismatch() {
        DenseMatrix::zeros(2, 2).dot(&DenseMatrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_rejected() {
        DenseMatrix::zeros(0, 2);
    }
}

//! Small dense linear algebra used by the height computation.
//!
//! The height system of §2.2 is a least-squares problem with one unknown per
//! landmark (≤ a few dozen). [`crate::heights`] accumulates its normal
//! equations directly (see that module for why this is exact) and solves
//! the square system here by Gaussian elimination with partial pivoting,
//! which is both sufficient and dependency-free.

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the square system `a · x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` when the matrix is (numerically) singular.
pub fn solve_square(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return None;
    }
    // Augmented matrix.
    let mut m = vec![vec![0.0; n + 1]; n];
    for i in 0..n {
        for j in 0..n {
            m[i][j] = a[(i, j)];
        }
        m[i][n] = b[i];
    }
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        // Eliminate. The pivot row is taken out of the matrix for the
        // duration so the target rows can be mutated through iterators.
        let pivot_row = std::mem::take(&mut m[col]);
        for (row, r) in m.iter_mut().enumerate() {
            if row == col {
                continue;
            }
            let factor = r[col] / pivot_row[col];
            if factor == 0.0 {
                continue;
            }
            for (t, &p) in r[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                *t -= factor * p;
            }
        }
        m[col] = pivot_row;
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// The dense least-squares construction the height solve used to run: the
/// differential oracle for [`crate::heights`]' sparse normal equations.
#[cfg(test)]
pub(crate) mod dense {
    use super::{solve_square, Matrix};

    /// Builds a matrix from nested rows. All rows must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// The transpose.
    pub fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t[(j, i)] = m[(i, j)];
            }
        }
        t
    }

    /// Matrix product `a × b`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "dimension mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let x = a[(i, k)];
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += x * b[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
        assert_eq!(m.cols(), v.len(), "dimension mismatch");
        (0..m.rows())
            .map(|i| (0..m.cols()).map(|j| m[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Solves the (possibly over-determined) system `a · x ≈ b` in the
    /// least-squares sense via the normal equations, with a small ridge
    /// term for numerical stability. Returns `None` when even the
    /// regularized system is singular.
    pub fn solve_least_squares(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        if a.rows() != b.len() || a.cols() == 0 {
            return None;
        }
        let at = transpose(a);
        let mut ata = matmul(&at, a);
        let ridge = 1e-9;
        for i in 0..ata.rows() {
            ata[(i, i)] += ridge;
        }
        let atb = matvec(&at, b);
        solve_square(&ata, &atb)
    }
}

#[cfg(test)]
mod tests {
    use super::dense::{from_rows, matmul, matvec, solve_least_squares, transpose};
    use super::*;

    #[test]
    fn indexing_and_transpose() {
        let m = from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        let t = transpose(&m);
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(transpose(&t), m);
    }

    #[test]
    fn matrix_multiplication() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert_eq!(matvec(&a, &[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn solve_square_known_system() {
        // 2x + y = 5 ; x - y = 1  => x = 2, y = 1
        let a = from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = solve_square(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn solve_square_detects_singularity() {
        let a = from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve_square(&a, &[1.0, 2.0]).is_none());
        // Dimension mismatches are rejected rather than panicking.
        let a = from_rows(&[vec![1.0, 2.0]]);
        assert!(solve_square(&a, &[1.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_exact_solution_when_consistent() {
        // The paper's 3-landmark height system:
        //   h_a + h_b = 5, h_a + h_c = 7, h_b + h_c = 8  =>  h = (2, 3, 5)
        let a = from_rows(&[
            vec![1.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ]);
        let h = solve_least_squares(&a, &[5.0, 7.0, 8.0]).unwrap();
        assert!((h[0] - 2.0).abs() < 1e-6);
        assert!((h[1] - 3.0).abs() < 1e-6);
        assert!((h[2] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn least_squares_minimizes_residual_for_overdetermined_system() {
        // Fit y = c0 + c1 x to noisy points on y = 1 + 2x.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let noise = [0.1, -0.05, 0.07, -0.02, 0.03];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let b: Vec<f64> = xs
            .iter()
            .zip(noise.iter())
            .map(|(&x, &n)| 1.0 + 2.0 * x + n)
            .collect();
        let a = from_rows(&rows);
        let c = solve_least_squares(&a, &b).unwrap();
        assert!((c[0] - 1.0).abs() < 0.15, "intercept {}", c[0]);
        assert!((c[1] - 2.0).abs() < 0.08, "slope {}", c[1]);
    }

    #[test]
    fn least_squares_rejects_mismatched_dimensions() {
        let a = from_rows(&[vec![1.0, 0.0]]);
        assert!(solve_least_squares(&a, &[1.0, 2.0]).is_none());
        assert!(solve_least_squares(&Matrix::zeros(2, 0), &[1.0, 2.0]).is_none());
    }
}

// Package matrix implements the dense linear algebra the library needs:
// row-major float64 matrices, multiplication, orthogonalization, a symmetric
// eigensolver (Householder tridiagonalization followed by implicit-shift QL
// iteration), and a thin SVD built on the eigensolver. PCA rotations
// (DDCres/DDCpca), random orthogonal rotations (ADSampling) and the OPQ
// Procrustes step are all built on this package.
//
// Matrices are float64 internally for numerical robustness; the data plane
// converts to float32 at the boundary (see F32 and ApplyF32).
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New returns a zero matrix with the given shape. It panics on non-positive
// dimensions, which always indicate a programming error.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("matrix: FromRows needs non-empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("matrix: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Mul returns a*b. The inner dimensions must agree.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matrix: Mul shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
}

// Apply returns m*x for a column vector x (len m.Cols).
func (m *Matrix) Apply(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("matrix: Apply len %d, want %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ApplyF32 computes m*x for a float32 vector, returning float32, with
// float64 accumulation. DDCopq rotates queries with it; the PCA and
// ADSampling rotations are stored as float32 (see F32) and rotate with
// vec.MatVec instead.
func (m *Matrix) ApplyF32(x []float32) ([]float32, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("matrix: ApplyF32 len %d, want %d", len(x), m.Cols)
	}
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * float64(x[j])
		}
		out[i] = float32(s)
	}
	return out, nil
}

// ApplyF32Into computes m*x into dst (len m.Rows), allocating nothing.
// dst must not alias x.
func (m *Matrix) ApplyF32Into(dst, x []float32) error {
	if len(x) != m.Cols {
		return fmt.Errorf("matrix: ApplyF32Into len %d, want %d", len(x), m.Cols)
	}
	if len(dst) != m.Rows {
		return fmt.Errorf("matrix: ApplyF32Into dst len %d, want %d", len(dst), m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * float64(x[j])
		}
		dst[i] = float32(s)
	}
	return nil
}

// F32 returns m's entries narrowed to float32, row-major. A trained
// rotation is kept in this form once training is done, so queries and
// rows are rotated with the float32 SIMD kernels (vec.MatVec).
func (m *Matrix) F32() []float32 {
	out := make([]float32, len(m.Data))
	for i, v := range m.Data {
		out[i] = float32(v)
	}
	return out
}

// IsOrthonormal reports whether m's rows are orthonormal within tol.
func (m *Matrix) IsOrthonormal(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := i; j < m.Rows; j++ {
			rj := m.Row(j)
			var dot float64
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > tol {
				return false
			}
		}
	}
	return true
}

// RandomOrthogonal returns a uniformly distributed n x n orthogonal matrix
// (Haar measure), generated by Gram-Schmidt orthonormalization of a
// Gaussian matrix. ADSampling's random rotation uses this.
func RandomOrthogonal(n int, rng *rand.Rand) *Matrix {
	for {
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		if err := GramSchmidt(m); err == nil {
			return m
		}
		// Degenerate draw (measure zero, but guard anyway): retry.
	}
}

// GramSchmidt orthonormalizes the rows of m in place using the modified
// Gram-Schmidt procedure. It returns an error if the rows are numerically
// rank-deficient.
func GramSchmidt(m *Matrix) error {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := 0; j < i; j++ {
			rj := m.Row(j)
			var dot float64
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			for k := range ri {
				ri[k] -= dot * rj[k]
			}
		}
		var norm float64
		for _, v := range ri {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return errors.New("matrix: rank-deficient input to GramSchmidt")
		}
		for k := range ri {
			ri[k] /= norm
		}
	}
	return nil
}

// Covariance returns the D x D covariance matrix of the given float32 rows
// (population covariance, mean removed), along with the mean vector.
func Covariance(data [][]float32) (*Matrix, []float64, error) {
	if len(data) == 0 || len(data[0]) == 0 {
		return nil, nil, errors.New("matrix: Covariance needs non-empty data")
	}
	n, d := len(data), len(data[0])
	mean := make([]float64, d)
	for _, row := range data {
		if len(row) != d {
			return nil, nil, errors.New("matrix: ragged data in Covariance")
		}
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := New(d, d)
	cent := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			cent[j] = float64(v) - mean[j]
		}
		for i := 0; i < d; i++ {
			ci := cent[i]
			if ci == 0 {
				continue
			}
			crow := cov.Row(i)
			for j := i; j < d; j++ {
				crow[j] += ci * cent[j]
			}
		}
	}
	inv := 1 / float64(n)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.At(i, j) * inv
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov, mean, nil
}

package pca

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resinfer/internal/matrix"
	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// syntheticModel returns a d-dimensional model whose rotation is a
// float64 matrix with unit-norm Gaussian rows (orthogonality does not
// matter to the rotation kernel), narrowed to float32 as Train does,
// together with that float64 reference.
func syntheticModel(r *rand.Rand, d int) (*Model, *matrix.Matrix) {
	ref := matrix.New(d, d)
	for i := 0; i < d; i++ {
		row := ref.Row(i)
		var ss float64
		for j := range row {
			row[j] = r.NormFloat64()
			ss += row[j] * row[j]
		}
		inv := 1 / math.Sqrt(ss)
		for j := range row {
			row[j] *= inv
		}
	}
	m := &Model{
		Dim:       d,
		Mean:      make([]float32, d),
		Rotation:  ref.F32(),
		Variances: make([]float64, d),
		Sigmas:    make([]float32, d),
	}
	for i := range m.Mean {
		m.Mean[i] = float32(r.NormFloat64())
		m.Variances[i] = float64(d - i)
		m.Sigmas[i] = float32(math.Sqrt(m.Variances[i]))
	}
	return m, ref
}

func randVec(r *rand.Rand, d int) []float32 {
	x := make([]float32, d)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return x
}

// TestProjectIntoMatchesFloat64Reference bounds the error of the float32
// rotation at D=960 against the float64 matrix it was narrowed from,
// applied to the float64 centered query: every coordinate is within
// 1e-5·‖x−μ‖ (each is a dot product with a unit-norm row, so the error
// scales with ‖x−μ‖), and the whole vector within 1e-5 relative error.
func TestProjectIntoMatchesFloat64Reference(t *testing.T) {
	const d = 960
	const bound = 1e-5
	r := rand.New(rand.NewSource(11))
	m, ref := syntheticModel(r, d)
	dst, cent := make([]float32, d), make([]float32, d)
	c64 := make([]float64, d)
	for trial := 0; trial < 5; trial++ {
		x := randVec(r, d)
		if err := m.ProjectInto(dst, x, cent); err != nil {
			t.Fatal(err)
		}
		var cNorm float64
		for i := range x {
			c64[i] = float64(x[i]) - float64(m.Mean[i])
			cNorm += c64[i] * c64[i]
		}
		cNorm = math.Sqrt(cNorm)
		want, err := ref.Apply(c64)
		if err != nil {
			t.Fatal(err)
		}
		var diff, norm float64
		for i, w := range want {
			e := math.Abs(float64(dst[i]) - w)
			if e > bound*cNorm {
				t.Fatalf("trial %d coord %d: got %v, want %v (|err| %g > %g)",
					trial, i, dst[i], w, e, bound*cNorm)
			}
			diff += e * e
			norm += w * w
		}
		if rel := math.Sqrt(diff / norm); rel > bound {
			t.Fatalf("trial %d: relative error %g > %g", trial, rel, bound)
		}
	}
}

// TestProjectMatrixMatchesProjectInto pins rows and queries to one kernel:
// a data row rotated by ProjectMatrix is bit-identical to the same vector
// rotated as a query.
func TestProjectMatrixMatchesProjectInto(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	data := anisotropic(r, 300, []float64{9, 7, 5, 3, 2, 1, 0.5, 0.25, 0.1})
	m, err := Train(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.ProjectMatrix(store.MustFromRows(data), 3)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, m.Dim)
	cent := make([]float32, m.Dim)
	for i, x := range data {
		if err := m.ProjectInto(q, x, cent); err != nil {
			t.Fatal(err)
		}
		for j, v := range rows.Row(i) {
			if math.Float32bits(v) != math.Float32bits(q[j]) {
				t.Fatalf("row %d coord %d: ProjectMatrix %v, ProjectInto %v", i, j, v, q[j])
			}
		}
	}
}

func TestEncodeDecodeRoundTripBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m, err := Train(anisotropic(r, 500, []float64{6, 4, 3, 2, 1, 0.5, 0.2, 0.1}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := persist.NewWriter(&buf)
	m.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	got, err := Decode(persist.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != m.Dim || len(got.Rotation) != len(m.Rotation) {
		t.Fatalf("decoded shape %d/%d, want %d/%d", got.Dim, len(got.Rotation), m.Dim, len(m.Rotation))
	}
	for i, v := range m.Rotation {
		if math.Float32bits(got.Rotation[i]) != math.Float32bits(v) {
			t.Fatalf("rotation[%d]: %v after round trip, want %v", i, got.Rotation[i], v)
		}
	}
	for i, v := range m.Variances {
		if math.Float64bits(got.Variances[i]) != math.Float64bits(v) {
			t.Fatalf("variances[%d] changed in round trip", i)
		}
	}
	var again bytes.Buffer
	w2 := persist.NewWriter(&again)
	got.Encode(w2)
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Fatal("re-encoding a decoded model changed its bytes")
	}
}

// TestDecodeFloat64RotationFormat decodes a model whose rotation block
// holds float64 entries that float32 cannot represent exactly — what an
// encoder that kept the float64 eigenvectors wrote. Each entry narrows to
// its nearest float32.
func TestDecodeFloat64RotationFormat(t *testing.T) {
	const d = 6
	r := rand.New(rand.NewSource(14))
	rot := matrix.RandomOrthogonal(d, r)
	inexact := 0
	for _, v := range rot.Data {
		if float64(float32(v)) != v {
			inexact++
		}
	}
	if inexact == 0 {
		t.Fatal("precondition: rotation entries are all float32-exact")
	}
	mean := randVec(r, d)
	variances := []float64{6, 5, 4, 3, 2, 1}
	sigmas := make([]float32, d)
	for i, v := range variances {
		sigmas[i] = float32(math.Sqrt(v))
	}
	var buf bytes.Buffer
	w := persist.NewWriter(&buf)
	w.Magic(modelMagic)
	w.Int(d)
	w.F32s(mean)
	rot.Encode(w)
	w.F64s(variances)
	w.F32s(sigmas)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := Decode(persist.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rot.Data {
		if m.Rotation[i] != float32(v) {
			t.Fatalf("rotation[%d] = %v, want %v", i, m.Rotation[i], float32(v))
		}
	}
	x := randVec(r, d)
	if _, err := m.Project(x); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProjectInto(b *testing.B) {
	for _, d := range []int{64, 256, 960} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(d)))
			m, _ := syntheticModel(r, d)
			x := randVec(r, d)
			dst, cent := make([]float32, d), make([]float32, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.ProjectInto(dst, x, cent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

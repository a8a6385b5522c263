package matrix

import (
	"errors"

	"resinfer/internal/persist"
)

const matMagic = "RIMAT1"

// Encode writes m to w.
func (m *Matrix) Encode(w *persist.Writer) {
	w.Magic(matMagic)
	w.Int(m.Rows)
	w.Int(m.Cols)
	w.F64s(m.Data)
}

// Decode reads a matrix previously written by Encode.
func Decode(r *persist.Reader) (*Matrix, error) {
	r.Magic(matMagic)
	rows := r.Int()
	cols := r.Int()
	data := r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return nil, errors.New("matrix: corrupt encoded matrix")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// EncodeF32 writes the rows x cols row-major float32 matrix data in
// Encode's format. Widening to float64 is exact, so DecodeF32 returns the
// same bits, and Decode reads the block as a Matrix.
func EncodeF32(w *persist.Writer, rows, cols int, data []float32) {
	wide := make([]float64, len(data))
	for i, v := range data {
		wide[i] = float64(v)
	}
	(&Matrix{Rows: rows, Cols: cols, Data: wide}).Encode(w)
}

// DecodeF32 reads a matrix written by Encode or EncodeF32, narrowing its
// entries to float32.
func DecodeF32(r *persist.Reader) (rows, cols int, data []float32, err error) {
	m, err := Decode(r)
	if err != nil {
		return 0, 0, nil, err
	}
	return m.Rows, m.Cols, m.F32(), nil
}

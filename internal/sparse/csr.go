package sparse

import "fmt"

// CSR is a compressed-sparse-row matrix: RowPtr has N+1 entries delimiting
// each row's span in Cols/Vals. The PIUMA workers in the paper operate on
// CSR-like formats (Table III); the HotTiles pipeline emits CSR sections for
// them.
type CSR struct {
	N      int
	RowPtr []int64
	Cols   []int32
	Vals   []float64
}

// NNZ reports the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Vals) }

// Row returns the column indices and values of row r as sub-slices (no
// copies; callers must not modify them).
func (m *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// Validate checks structural invariants: monotone row pointers covering all
// nonzeros, in-range sorted column indices within each row. Monotonicity is
// established for the whole pointer array before any pointer is used to
// index Cols — a CSR decoded from untrusted bytes can carry a locally
// increasing but globally non-monotone RowPtr (e.g. [0, 10, 5]) whose
// early rows would otherwise index past the column slice.
func (m *CSR) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("sparse: non-positive dimension %d", m.N)
	}
	if len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.N+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.N] != int64(m.NNZ()) {
		return fmt.Errorf("sparse: RowPtr bounds [%d,%d], want [0,%d]",
			m.RowPtr[0], m.RowPtr[m.N], m.NNZ())
	}
	if len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("sparse: ragged CSR slices: cols=%d vals=%d", len(m.Cols), len(m.Vals))
	}
	for r := 0; r < m.N; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", r)
		}
	}
	for r := 0; r < m.N; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			if m.Cols[i] < 0 || int(m.Cols[i]) >= m.N {
				return fmt.Errorf("sparse: row %d col %d out of range for N=%d", r, m.Cols[i], m.N)
			}
			if i > m.RowPtr[r] && m.Cols[i] <= m.Cols[i-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at nnz %d", r, i)
			}
		}
	}
	return nil
}

// ToCSR converts a row-major COO into CSR. The input must satisfy
// (*COO).Validate (row-major, deduplicated).
func ToCSR(m *COO) *CSR {
	c := &CSR{
		N:      m.N,
		RowPtr: make([]int64, m.N+1),
		Cols:   append([]int32(nil), m.Cols...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	for _, r := range m.Rows {
		c.RowPtr[r+1]++
	}
	for r := 0; r < m.N; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}

// ToCOO converts a CSR matrix back into a row-major COO.
func (m *CSR) ToCOO() *COO {
	c := NewCOO(m.N, m.NNZ())
	for r := 0; r < m.N; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			c.Append(int32(r), m.Cols[i], m.Vals[i])
		}
	}
	return c
}

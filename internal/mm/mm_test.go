package mm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 3
1 1 2.5
3 2 -1
2 3 4
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.NNZ() != 3 {
		t.Fatalf("N=%d nnz=%d", m.N, m.NNZ())
	}
	r, c, v := m.At(0)
	if r != 0 || c != 0 || v != 2.5 {
		t.Fatalf("first entry (%d,%d,%g)", r, c, v)
	}
	r, c, v = m.At(2)
	if r != 2 || c != 1 || v != -1 {
		t.Fatalf("last entry (%d,%d,%g)", r, c, v)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5
3 3 7
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 { // (1,0), (0,1), (2,2)
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	r, c, v := m.At(0)
	if r != 0 || c != 1 || v != 5 {
		t.Fatalf("mirrored entry (%d,%d,%g)", r, c, v)
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	_, _, v := m.At(0) // (0,1) should carry -3
	if v != -3 {
		t.Fatalf("skew value %g, want -3", v)
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NNZ(); i++ {
		if _, _, v := m.At(i); v != 1 {
			t.Fatalf("pattern value %g", v)
		}
	}
}

func TestReadIntegerField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, v := m.At(0); v != 7 {
		t.Fatalf("value %g", v)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad banner":   "%%NotMatrixMarket x y z w\n1 1 0\n",
		"bad object":   "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"dense format": "%%MatrixMarket matrix array real general\n1 1\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"non-square":   "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
		"missing size": "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad size":     "%%MatrixMarket matrix coordinate real general\nx y z\n",
		// Strict size-line arity: fmt.Sscan used to accept all four of
		// these (trailing garbage, a fourth integer, a fractional nnz, a
		// short line), silently mis-reading corrupt uploads as 4×4/5 etc.
		"size trailing garbage": "%%MatrixMarket matrix coordinate real general\n4 4 1 junk\n1 1 1\n",
		"size extra integer":    "%%MatrixMarket matrix coordinate real general\n4 4 1 6\n1 1 1\n",
		"size fractional nnz":   "%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n",
		"size short line":       "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
		"short entries":         "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"bad entry":             "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 nope 1\n",
		"bad row":               "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"bad value":             "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
		"out of range":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"zero dimension":        "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"few fields":            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		// An index past int32 must not wrap: 4294967297 narrowed to int32
		// before the range check used to read as row 1.
		"index wraps int32": "%%MatrixMarket matrix coordinate real general\n2 2 1\n4294967297 1 5\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := sparse.NewCOO(16, 40)
	seen := map[[2]int32]bool{}
	for len(seen) < 40 {
		r, c := int32(rng.Intn(16)), int32(rng.Intn(16))
		if seen[[2]int32{r, c}] {
			continue
		}
		seen[[2]int32{r, c}] = true
		m.Append(r, c, rng.NormFloat64())
	}
	m.SortRowMajor()

	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != m.N || back.NNZ() != m.NNZ() {
		t.Fatalf("shape changed: N %d->%d nnz %d->%d", m.N, back.N, m.NNZ(), back.NNZ())
	}
	for i := 0; i < m.NNZ(); i++ {
		r1, c1, v1 := m.At(i)
		r2, c2, v2 := back.At(i)
		if r1 != r2 || c1 != c2 || v1 != v2 {
			t.Fatalf("entry %d differs: (%d,%d,%g) vs (%d,%d,%g)", i, r1, c1, v1, r2, c2, v2)
		}
	}
}

// Property: round trip through the textual format is exact for any valid COO
// (we write %.17g which round-trips float64).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := sparse.NewCOO(n, 0)
		seen := map[[2]int32]bool{}
		for i := 0; i < rng.Intn(60); i++ {
			r, c := int32(rng.Intn(n)), int32(rng.Intn(n))
			if seen[[2]int32{r, c}] {
				continue
			}
			seen[[2]int32{r, c}] = true
			m.Append(r, c, rng.NormFloat64()*1e3)
		}
		m.SortRowMajor()
		var buf bytes.Buffer
		if Write(&buf, m) != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil || back.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.NNZ(); i++ {
			r1, c1, v1 := m.At(i)
			r2, c2, v2 := back.At(i)
			if r1 != r2 || c1 != c2 || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetryString(t *testing.T) {
	if General.String() != "general" || Symmetric.String() != "symmetric" ||
		SkewSymmetric.String() != "skew-symmetric" {
		t.Fatal("Symmetry.String broken")
	}
}

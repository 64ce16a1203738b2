package mm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/sparse"
)

// sameCOO reports whether two matrices are identical: reflect.DeepEqual,
// except that values compare by their bits, so NaN equals itself and -0
// differs from +0.
func sameCOO(a, b *sparse.COO) bool {
	if a.N != b.N || !reflect.DeepEqual(a.Rows, b.Rows) || !reflect.DeepEqual(a.Cols, b.Cols) ||
		len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// TestReadMatchesReferenceChunked holds the chunked reader to readRef on
// the ten Table V mimics, cut into many chunks and run on 1, 2 and 4
// workers: intact, truncated mid-file, with one byte corrupted, and with
// garbage after the nnz-th entry, each also re-labelled as a symmetric
// pattern matrix so the mirroring and pattern paths cross chunk borders.
func TestReadMatchesReferenceChunked(t *testing.T) {
	defer func(old int) { chunkBytes = old }(chunkBytes)
	chunkBytes = 4096
	rng := rand.New(rand.NewSource(12))
	for _, b := range gen.Benchmarks() {
		var buf bytes.Buffer
		if err := Write(&buf, b.Build(1, 4096)); err != nil {
			t.Fatal(err)
		}
		intact := buf.Bytes()
		corrupt := bytes.Clone(intact)
		corrupt[len(corrupt)/3+rng.Intn(len(corrupt)/3)] = byte(rng.Intn(256))
		inputs := map[string][]byte{
			"intact":    intact,
			"truncated": intact[:len(intact)/2],
			"corrupt":   corrupt,
			"garbage":   append(bytes.Clone(intact), "1 1 1\nnot an entry\n"...),
		}
		for name, in := range inputs {
			symmetric := bytes.Replace(in, []byte("real general"), []byte("pattern symmetric"), 1)
			for _, v := range []struct {
				name string
				in   []byte
			}{{name, in}, {name + "/symmetric", symmetric}} {
				want, errRef := readRef(bytes.NewReader(v.in))
				for _, workers := range []int{1, 2, 4} {
					prev := par.SetWorkers(workers)
					got, err := Read(bytes.NewReader(v.in))
					par.SetWorkers(prev)
					if (err == nil) != (errRef == nil) {
						t.Fatalf("%s/%s on %d workers: Read error %v, reference error %v",
							b.Short, v.name, workers, err, errRef)
					}
					if err == nil && !sameCOO(got, want) {
						t.Fatalf("%s/%s on %d workers: Read and the reference disagree",
							b.Short, v.name, workers)
					}
					if err != nil && err.Error() != errRef.Error() {
						t.Errorf("%s/%s on %d workers: error %q, reference %q",
							b.Short, v.name, workers, err, errRef)
					}
				}
			}
		}
	}
}

// TestReadLineLimit pins the line length bound at the one the reference's
// bufio.Scanner enforces: a line of maxLine-1 bytes passes, one of maxLine
// bytes is rejected once the reader reaches it, and not before.
func TestReadLineLimit(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate real general\n"
	pad := func(n int) string { return "1 1 1" + strings.Repeat(" ", n-5) }
	for name, in := range map[string]string{
		"entry at limit":     banner + "2 2 1\n" + pad(maxLine-1) + "\n",
		"entry past limit":   banner + "2 2 1\n" + pad(maxLine) + "\n",
		"last line no \\n":   banner + "2 2 1\n" + pad(maxLine),
		"comment past limit": banner + "2 2 1\n%" + strings.Repeat("x", maxLine) + "\n1 1 1\n",
		"after nnz-th entry": banner + "2 2 1\n1 1 1\n" + pad(maxLine) + "\n",
		"size line too long": banner + "2 2 1" + strings.Repeat(" ", maxLine) + "\n1 1 1\n",
		"banner too long":    strings.TrimSuffix(banner, "\n") + strings.Repeat(" ", maxLine) + "\n2 2 0\n",
	} {
		_, err := Read(strings.NewReader(in))
		_, errRef := readRef(strings.NewReader(in))
		if (err == nil) != (errRef == nil) {
			t.Errorf("%s: Read error %v, reference error %v", name, err, errRef)
		}
	}
}

// TestReadHeaderNNZBoundsAllocation is the regression test for sizing the
// COO from the header's nnz: this 73-byte upload claims 50 M entries of a
// symmetric matrix and used to allocate 1.5 GB before failing. Arrays are
// sized from the bytes present now.
func TestReadHeaderNNZBoundsAllocation(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n1000 1000 50000000\n1 1 1\n"
	if len(in) != 73 {
		t.Fatalf("input is %d bytes, want 73", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("50 M entries claimed, one present: want an error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a 73-byte input, want < 1 MiB", d)
	}
}

// TestReadAllocs pins Read's allocations: a constant number per call,
// independent of the entry count, so a 1.4 M-entry upload costs the same
// handful as a 10 k-entry one.
func TestReadAllocs(t *testing.T) {
	encode := func(m *sparse.COO) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(encode(gen.Uniform(rand.New(rand.NewSource(1)), 4096, 10_000)))
	// The root package's benchMatrix(): 1,373,430 entries, 41 MB of text.
	large := allocs(encode(gen.BlockCommunity(rand.New(rand.NewSource(1)), 16384, 96, 0.6, 8)))
	if large > 100 {
		t.Errorf("Read allocated %v times on the 1.4 M-entry input, want <= 100", large)
	}
	if d := math.Abs(large - small); d > 10 {
		t.Errorf("Read allocated %v times on 10 k entries and %v on 1.4 M: want the same within 10",
			small, large)
	}
}

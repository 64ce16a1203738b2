package mm

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the MatrixMarket parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip through Write/Read
// to an identical matrix.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.5\n3 2 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 1\n2 1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n% comment\n\n1 2 9\n")
	// Malformed size lines the strict parser must reject (a pre-fix
	// fmt.Sscan accepted all of these with trailing garbage dropped).
	f.Add("%%MatrixMarket matrix coordinate real general\n4 4 5 junk\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n4 4 5 6\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n")

	f.Fuzz(func(t *testing.T, input string) {
		m, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.N != m.N || back.NNZ() != m.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				m.N, m.NNZ(), back.N, back.NNZ())
		}
		for i := 0; i < m.NNZ(); i++ {
			r1, c1, v1 := m.At(i)
			r2, c2, v2 := back.At(i)
			if r1 != r2 || c1 != c2 || v1 != v2 {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}

// FuzzReadMatchesReference holds Read to readRef, the line-at-a-time
// reader it replaced: both must accept or reject every input, and agree on
// every matrix they accept. chunkBytes is lowered so that even short inputs
// split into many chunks, with the nnz-th entry anywhere among them.
func FuzzReadMatchesReference(f *testing.F) {
	defer func(old int) { chunkBytes = old }(chunkBytes)
	chunkBytes = 8
	const general = "%%MatrixMarket matrix coordinate real general\n"
	for _, s := range []string{
		general + "3 3 3\n1 1 2.5\n3 2 -1\n2 3 4\n",
		general + "3 3 2\r\n1 1 2.5\r\n3 2 -1\r\n",            // CRLF
		general + "3 3 2\n1\v1\f2.5\n\f3 2\v-1\v\n",           // \v and \f
		general + "3 3 2\n1\u00a01 2.5\n3\u00852 -1\n",        // U+00A0, U+0085
		general + "3 3 2\n % comment\n+1 1 2\n3 +2 1\n",       // signs
		general + "3 3 1\n-1 1 2\n",                           // negative index
		general + "3 3 3\n1 1 0x1p-2\n2 2 inf\n3 3 nan\n",     // odd floats
		general + "3 3 1\n0000000000000000001 1 1\n",          // 19 digits
		general + "3 3 1\n99999999999999999999 1 1\n",         // overflow
		general + "3 3 1\n1 4294967297 1\n",                   // int32 wrap
		general + "3 3 2\n% comment\n\n  \n1 1 1\n%\n2 2 2\n", // comments, blanks
		general + "3 3 2\n1 1 1\n2 2 2\nnot an entry\n",       // trailing garbage
		general + "3 3 2\n1 1 1\n2 2 2 extra fields\n9 9 9\n", // extra fields
		general + "3 3 3\n1 1 1\n2 2 2\n",                     // short
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3 junk\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 2\n2 1 3\n4 1 -2",
		"%%MatrixMarket matrix coordinate real symmetric\n1000 1000 50000000\n1 1 1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := Read(strings.NewReader(input))
		want, errRef := readRef(strings.NewReader(input))
		if (err == nil) != (errRef == nil) {
			t.Fatalf("Read error %v, reference error %v", err, errRef)
		}
		if err == nil && !sameCOO(got, want) {
			t.Fatalf("Read and the reference disagree:\n%+v\n%+v", got, want)
		}
	})
}

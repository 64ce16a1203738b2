package hotcore

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/arch"
)

// planBytes serializes a small valid plan; csr selects the PIUMA
// architecture, whose workers consume CSR, for a second partitioning
// decision over the same matrix.
func planBytes(tb testing.TB, csr bool) []byte {
	tb.Helper()
	m := testMatrix(tb, 61, 256, 32, 900, 400)
	var a arch.Arch
	if csr {
		a = arch.PIUMA()
		a.TileH, a.TileW = 64, 64
	} else {
		a = smallArch()
	}
	p, err := Preprocess(m, &a, StrategyHotTiles, 2, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadPlan feeds arbitrary byte streams to the plan deserializer — the
// bytes the daemon reads back from its content-addressed cache on disk.
// ReadPlan must reject corruption with a clean error, never panic, and any
// stream it accepts must re-serialize.
func FuzzReadPlan(f *testing.F) {
	coo := planBytes(f, false)
	csr := planBytes(f, true)
	f.Add(coo)
	f.Add(csr)
	f.Add(coo[:len(coo)/2])
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatalf("accepted plan does not re-serialize: %v", err)
		}
		if _, err := ReadPlan(&buf); err != nil {
			t.Fatalf("accepted plan does not re-read: %v", err)
		}
	})
}

// TestReadPlanTruncated walks prefixes of a valid plan stream: every strict
// truncation must come back as an error, not a panic and not a silently
// shorter plan.
func TestReadPlanTruncated(t *testing.T) {
	for _, csr := range []bool{false, true} {
		data := planBytes(t, csr)
		step := len(data) / 97
		if step < 1 {
			step = 1
		}
		for cut := 0; cut < len(data); cut += step {
			if _, err := ReadPlan(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("csr=%v: truncation at %d/%d accepted", csr, cut, len(data))
			}
		}
	}
}

// TestReadPlanBitFlips flips single bits across a valid plan stream and
// requires ReadPlan to survive each corruption: either a clean rejection or
// a plan that still satisfies Validate (a flip inside a float payload can
// be semantically invisible). The pre-fix code panicked on several of
// these shapes (zero tile geometry among them).
func TestReadPlanBitFlips(t *testing.T) {
	for _, csr := range []bool{false, true} {
		data := planBytes(t, csr)
		step := len(data) / 512
		if step < 1 {
			step = 1
		}
		for pos := 0; pos < len(data); pos += step {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << (pos % 8)
			p, err := ReadPlan(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("csr=%v: flip at byte %d accepted an invalid plan: %v", csr, pos, err)
			}
		}
	}
}

// encodeWire gob-encodes a hand-built wire record, bypassing WritePlan's
// guards — the shape a corrupted or hostile cache file can take.
func encodeWire(t *testing.T, w *planWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validWire decodes a valid plan stream back into its wire form so tests
// can corrupt individual fields.
func validWire(t *testing.T, csr bool) *planWire {
	t.Helper()
	var w planWire
	if err := gob.NewDecoder(bytes.NewReader(planBytes(t, csr))).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return &w
}

// TestReadPlanAdversarialWire is the regression test for the
// deserialization panics: each case decodes fine and must then come back
// from ReadPlan's validation as a clean error, not a panic (integer
// division by zero, out-of-range index).
func TestReadPlanAdversarialWire(t *testing.T) {
	cases := map[string]func(w *planWire){
		"zero tile geometry": func(w *planWire) {
			w.TileH, w.TileW = 0, 0
		},
		"assignment length ≠ tile count": func(w *planWire) {
			w.Hot = w.Hot[:len(w.Hot)-1]
		},
	}
	for name, corrupt := range cases {
		for _, csr := range []bool{false, true} {
			w := validWire(t, csr)
			if len(w.Hot) == 0 {
				t.Fatalf("csr=%v: test plan has no tiles; corruption would be vacuous", csr)
			}
			corrupt(w)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s (csr=%v): ReadPlan panicked: %v", name, csr, r)
					}
				}()
				if _, err := ReadPlan(bytes.NewReader(encodeWire(t, w))); err == nil {
					t.Errorf("%s (csr=%v): corrupt wire accepted", name, csr)
				}
			}()
		}
	}
}

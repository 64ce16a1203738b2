package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	tr := New("spmmsim")
	tr.SetConfig("scale", "512")
	tr.SetConfig("seed", "1")
	for _, phase := range []string{"generate", "tile", "estimate", "exec"} {
		sp := tr.Phase(phase).Start("pap")
		sp.End()
	}
	NewCounter("manifest.test.hits").Add(3)
	tr.AddOutput("fig10", []byte("rendered table\n"))

	var buf bytes.Buffer
	if err := tr.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != "spmmsim" || m.Config["scale"] != "512" || m.Config["seed"] != "1" {
		t.Fatalf("config lost: %+v", m)
	}
	if len(m.Spans.Children) != 4 {
		t.Fatalf("phases %+v", m.Spans.Children)
	}
	for i, want := range []string{"generate", "tile", "estimate", "exec"} {
		if got := m.Spans.Children[i].Name; got != want {
			t.Fatalf("phase %d = %s, want %s", i, got, want)
		}
	}
	if m.Counters["manifest.test.hits"] != 3 {
		t.Fatalf("counter %d", m.Counters["manifest.test.hits"])
	}
	if len(m.Outputs) != 1 {
		t.Fatalf("outputs %v", m.Outputs)
	}
	o := m.Outputs[0]
	want := HashOutput("fig10", []byte("rendered table\n"))
	if o != want {
		t.Fatalf("output %+v, want %+v", o, want)
	}
	if o.Bytes != 15 || len(o.SHA256) != 64 {
		t.Fatalf("hash record %+v", o)
	}
}

func TestWriteSummary(t *testing.T) {
	tr := New("sum")
	ph := tr.Phase("exec")
	for i := 0; i < 3; i++ {
		ph.Start("job").End()
	}
	NewCounter("summary.test.count").Inc()
	tr.AddOutput("tab6", []byte("x"))
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace sum", "exec", "job", "summary.test.count", "output tab6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	var nilTr *Tracer
	if err := nilTr.WriteSummary(&buf); err == nil {
		t.Fatal("nil tracer summary succeeded")
	}
	if err := nilTr.WriteManifest(&buf); err == nil {
		t.Fatal("nil tracer manifest succeeded")
	}
}

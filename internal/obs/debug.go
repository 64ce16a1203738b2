// Live debug endpoint: an opt-in HTTP server (the CLIs' -debug-addr flag)
// exposing the standard Go diagnostics (net/http/pprof, expvar) next to
// this package's own state — the full metric registry in Prometheus text
// exposition at /metrics and, at /progress, a view of the run's tracer:
// its open and recently ended spans. The mux is built separately from the
// server so tests drive it through httptest without binding a port.
package obs

import (
	"cmp"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"time"
)

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// charset: runs of characters outside [a-zA-Z0-9_:] become one underscore
// (so "sim.engine.steps" serves as "sim_engine_steps").
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// WriteMetricsText renders the view in the Prometheus text exposition
// format (version 0.0.4): counters, gauges (level plus a companion _max
// gauge for the high-water mark), and histograms with cumulative _bucket
// series, _sum, and _count. Output is sorted by metric name so scrapes
// diff cleanly. Distinct registry names never sanitize to one Prometheus
// series: the metricname analyzer rejects such collisions, companions
// included, at build time.
func (v *RegistryView) WriteMetricsText(w io.Writer) error {
	names := make([]string, 0, len(v.Counters))
	for name := range v.Counters {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		p := sanitizeMetricName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, v.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range v.Gauges {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		g := v.Gauges[name]
		p := sanitizeMetricName(name)
		_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n# TYPE %s_max gauge\n%s_max %d\n",
			p, p, g.Value, p, p, g.Max)
		if err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range v.Histograms {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h := v.Histograms[name]
		p := sanitizeMetricName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p, b.UpperNS, b.Count); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			p, h.Count, p, h.SumNS, p, h.Count)
		if err != nil {
			return err
		}
	}
	return nil
}

// debugIndex is the landing page listing the endpoint's routes.
const debugIndex = `<html><head><title>hottiles debug</title></head><body>
<h1>hottiles debug endpoint</h1>
<ul>
<li><a href="/metrics">/metrics</a> — obs registry, Prometheus text exposition</li>
<li><a href="/progress">/progress</a> — open and recently ended spans, JSON</li>
<li><a href="/debug/requests">/debug/requests</a> — flight recorder: recent requests + post-mortems, JSON</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar (memstats, cmdline)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — CPU, heap, goroutine, block profiles</li>
</ul></body></html>
`

// progressRecent bounds the recently ended spans /progress lists.
const progressRecent = 32

// RunningItem is one open span of a ProgressView.
type RunningItem struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// FinishedItem is one recently ended span of a ProgressView.
type FinishedItem struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// ProgressView is the JSON shape /progress serves.
type ProgressView struct {
	Running   []RunningItem  `json:"running"`
	Recent    []FinishedItem `json:"recent,omitempty"`
	Completed int            `json:"completed"`
}

// progress reads the work in flight off the span tree: open spans longest-
// running first, the last few ended spans in end order, and how many have
// ended. The root and the phases group work rather than being work, so
// they are left out. Items are named by their path below the root
// ("exec/SPADE|pap|HotTiles|2"). A nil tracer gives an empty board.
func (t *Tracer) progress() ProgressView {
	v := ProgressView{Running: []RunningItem{}}
	var done []interval
	for _, iv := range t.intervals() {
		switch {
		case iv.group:
		case iv.open:
			v.Running = append(v.Running, RunningItem{Name: iv.path, ElapsedMS: ms(iv.dur)})
		default:
			done = append(done, iv)
		}
	}
	slices.SortFunc(v.Running, func(a, b RunningItem) int {
		if a.ElapsedMS != b.ElapsedMS {
			return cmp.Compare(b.ElapsedMS, a.ElapsedMS)
		}
		return cmp.Compare(a.Name, b.Name)
	})
	slices.SortStableFunc(done, func(a, b interval) int {
		return a.start.Add(a.dur).Compare(b.start.Add(b.dur))
	})
	v.Completed = len(done)
	for _, iv := range done[max(0, len(done)-progressRecent):] {
		v.Recent = append(v.Recent, FinishedItem{Name: iv.path, MS: ms(iv.dur)})
	}
	return v
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// DebugMux builds the debug endpoint's routing table; /progress reads tr,
// which may be nil. Tests wrap it in httptest.Server; ServeDebug binds it
// to a real listener.
func DebugMux(tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := RegistrySnapshot().WriteMetricsText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		// Resolved per request: ConfigureFlight may swap the recorder after
		// the mux was built.
		serveJSON(w, Flight().Snapshot())
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, tr.progress())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, debugIndex)
	})
	return mux
}

// serveJSON writes v as an indented JSON response.
func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// debugDrainTimeout bounds how long ServeDebug's stop function waits for
// in-flight scrapes before cutting their connections.
const debugDrainTimeout = 2 * time.Second

// GracefulStop shuts an HTTP server down without truncating in-flight
// responses: it stops the listeners, waits up to drain for running handlers
// to finish, and only then falls back to Close (which severs whatever is
// still open). It returns the Shutdown error when the drain deadline was
// exceeded — nil means every in-flight response completed. Both the debug
// endpoint and the hottilesd daemon stop through this one drain path.
func GracefulStop(srv *http.Server, drain time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return fmt.Errorf("obs: drain incomplete after %v: %w", drain, err)
	}
	return nil
}

// ServeDebug starts the debug endpoint on addr (e.g. ":6060"), its
// /progress reading tr (nil serves an empty board). It returns
// the bound address (useful when addr requested port 0) and a stop function
// that drains in-flight requests (a scrape racing shutdown still gets its
// full body) before closing the listener and any remaining connections. The
// accept loop is the one goroutine the repository runs outside the par
// pool: it must outlive any single fan-out and terminate with the
// listener, which the pool's bounded-task shape cannot express.
func ServeDebug(addr string, tr *Tracer) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(tr)}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { GracefulStop(srv, debugDrainTimeout) }, nil
}

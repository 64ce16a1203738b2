// Request-scoped observability middleware (DESIGN.md §18): every route is
// wrapped so one request ID — accepted from X-Request-ID / traceparent or
// minted — tags the access-log line, the response header, the request's
// span tree, the planstore and hotcore log lines below, and the flight-
// recorder entry. Per-route RED metrics (requests, errors, latency
// histogram) land in the ordinary registry, so /metrics and manifests pick
// them up with no extra wiring.
package main

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// redMetrics is one route's RED triple.
type redMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// Per-route RED metrics. Names are literals (not built from the route
// string) so the metricname analyzer can hold them to the registry grammar
// and the whole-suite duplicate/Prometheus-collision check.
var (
	redPlan = redMetrics{
		requests: obs.NewCounter("httpd.plan.requests"),
		errors:   obs.NewCounter("httpd.plan.errors"),
		latency:  obs.NewHistogram("httpd.plan.latency.ns"),
	}
	redPlanGet = redMetrics{
		requests: obs.NewCounter("httpd.planget.requests"),
		errors:   obs.NewCounter("httpd.planget.errors"),
		latency:  obs.NewHistogram("httpd.planget.latency.ns"),
	}
	redGNN = redMetrics{
		requests: obs.NewCounter("httpd.gnn.requests"),
		errors:   obs.NewCounter("httpd.gnn.errors"),
		latency:  obs.NewHistogram("httpd.gnn.latency.ns"),
	}
	redHealthz = redMetrics{
		requests: obs.NewCounter("httpd.healthz.requests"),
		errors:   obs.NewCounter("httpd.healthz.errors"),
		latency:  obs.NewHistogram("httpd.healthz.latency.ns"),
	}
)

// statusWriter captures what the handler told the client: status, body
// bytes, and (for 4xx/5xx) the leading bytes of the error body so the
// flight recorder can show the error chain without retaining responses.
type statusWriter struct {
	http.ResponseWriter
	status  int
	bytes   int64
	errBody []byte
}

// errBodyCap bounds the captured error text per request.
const errBodyCap = 256

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 400 && len(w.errBody) < errBodyCap {
		take := min(errBodyCap-len(w.errBody), len(p))
		w.errBody = append(w.errBody, p[:take]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// errText renders the captured error body as a single log-friendly line.
func (w *statusWriter) errText() string {
	if w.status < 400 || len(w.errBody) == 0 {
		return ""
	}
	b := w.errBody
	for i, c := range b {
		if c == '\n' {
			b = b[:i]
			break
		}
	}
	return string(b)
}

// observed wraps one route handler in the request-scoped plane: request-ID
// resolution and echo, a per-request tracer and logger on the context, RED
// metrics, the access-log line, and the flight-recorder record. route must be a fixed literal — it names metrics series and
// flight records.
func (s *server) observed(route string, red redMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		red.requests.Inc()

		id := obs.InboundRequestID(r.Header)
		if id == "" {
			id = obs.MintRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)

		tr := obs.New("httpd." + route)
		tr.Root().SetAttr("req", id)
		reqLog := s.log.With(obs.Str("req", id), obs.Str("route", route))
		ctx := obs.WithLogger(r.Context(), reqLog)
		ctx = obs.WithSpan(ctx, tr.Root())

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))

		if sw.status == 0 {
			// Handler wrote nothing: net/http would send 200 on return.
			sw.status = http.StatusOK
		}
		lat := time.Since(t0)
		red.latency.Observe(lat.Nanoseconds())
		if sw.status >= 500 {
			red.errors.Inc()
		}

		rec := obs.RequestRecord{
			ID:        id,
			Method:    r.Method,
			Route:     route,
			Path:      r.URL.Path,
			Status:    sw.status,
			Start:     t0,
			LatencyNS: lat.Nanoseconds(),
			Bytes:     sw.bytes,
			Remote:    r.RemoteAddr,
			Err:       sw.errText(),
		}
		obs.Flight().Record(rec, tr.SpanTree())

		lv := obs.LogInfo
		switch {
		case sw.status >= 500:
			lv = obs.LogError
		case sw.status >= 400:
			lv = obs.LogWarn
		}
		reqLog.Log(lv, "httpd.access",
			obs.Str("method", r.Method),
			obs.Str("path", r.URL.Path),
			obs.Int("status", sw.status),
			obs.Int("bytes", int(sw.bytes)),
			obs.Str("dur", lat.String()),
		)
	}
}

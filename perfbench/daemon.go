package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/planstore"
)

// The daemon runs at its default flags apart from the listen address: an
// ephemeral port, read back from its hottilesd.listen log line.
var daemonFlags = []string{"-addr", "127.0.0.1:0"}

// Defaults of the daemon flags the replay must match.
const (
	daemonArch = "spade-sextans:4" // -arch
	daemonSeed = 1                 // -seed: IUnaware and GNN features
	gnnLayers  = 2                 // ?layers= of every POST /gnn
)

// startTimeout bounds how long a daemon may take to listen and answer
// /healthz, and stopTimeout how long its SIGTERM drain may take.
const (
	startTimeout = 30 * time.Second
	stopTimeout  = 30 * time.Second
)

// daemon is one hottilesd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	setup  time.Duration // exec until /healthz answered 200
	client *http.Client

	mu      sync.Mutex
	stderr  []string      // captured log lines, bounded by maxLogLines
	eof     chan struct{} // closed when stderr reaches EOF
	stopped bool          // stopDaemons has stopped it
}

// maxLogLines bounds the captured daemon log (one access line per
// request, so a run stays far below it).
const maxLogLines = 100000

// startDaemon launches hottilesd and waits until it serves /healthz.
func startDaemon(bin string) (*daemon, error) {
	cmd := child(bin+"/hottilesd", daemonFlags...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cmd: cmd,
		eof: make(chan struct{}),
		// Two connections at most: both serve workloads use two clients.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go d.readLog(pipe, addr)

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.eof:
		d.stop()
		return nil, fmt.Errorf("hottilesd exited before listening: %s", d.logTail(5))
	case <-time.After(startTimeout):
		d.stop()
		return nil, fmt.Errorf("hottilesd did not log its listen address within %v", startTimeout)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > startTimeout {
			d.stop()
			return nil, fmt.Errorf("hottilesd /healthz not ready within %v", startTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// readLog captures the daemon's stderr and reports the listen address
// from its first hottilesd.listen line.
func (d *daemon) readLog(pipe io.Reader, addr chan<- string) {
	defer close(d.eof)
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if len(d.stderr) < maxLogLines {
			d.stderr = append(d.stderr, line)
		}
		d.mu.Unlock()
		if !sent {
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "hottilesd.listen" && rec.Addr != "" {
				addr <- rec.Addr
				sent = true
			}
		}
	}
	io.Copy(io.Discard, pipe)
}

func (d *daemon) logTail(n int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return lastLines(strings.Join(d.stderr, "\n"), n)
}

// stop ends the daemon with SIGTERM and waits for it. It reports an error
// unless the drain completed cleanly and the process exited 0.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.eof:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.eof
	}
	err := d.cmd.Wait()
	if err != nil {
		return fmt.Errorf("hottilesd exit: %w: %s", err, d.logTail(5))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.stderr {
		if strings.Contains(l, `"msg":"hottilesd.drain.done"`) {
			return nil
		}
	}
	return fmt.Errorf("hottilesd exited 0 without logging a completed drain")
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// response is one answered request: its status and body.
type response struct {
	status int
	body   []byte
}

// post sends body to path and reads the whole response, into a buffer
// sized from Content-Length when the daemon sends one (plans run to tens
// of MB; growing the buffer would load the client's heap and GC).
func (d *daemon) post(path string, body io.Reader, length int64) (response, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, body)
	if err != nil {
		return response{}, err
	}
	req.ContentLength = length
	req.Header.Set("Content-Type", "text/plain")
	resp, err := d.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	var data []byte
	if resp.ContentLength >= 0 {
		data = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: data}, nil
}

// stats reads the plan store's counters from /healthz.
func (d *daemon) stats() (planstore.Stats, error) {
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return planstore.Stats{}, err
	}
	defer resp.Body.Close()
	var h struct {
		Store planstore.Stats `json:"store"`
	}
	if resp.StatusCode != http.StatusOK {
		return planstore.Stats{}, fmt.Errorf("/healthz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return planstore.Stats{}, fmt.Errorf("/healthz: %w", err)
	}
	return h.Store, nil
}

// launchDaemons starts n daemons one after another, measuring each one's
// set-up; warm, when non-nil, runs on every launch and counts towards its
// set-up. The last daemon serves the workload. All stay up until
// stopDaemons ends them after the window: hottilesd installs its SIGTERM
// handler only after it logs hottilesd.listen, so a SIGTERM sent the
// moment it is ready can kill it without a drain.
func launchDaemons(r *run, n int, warm func(d *daemon) error) ([]*daemon, []float64, error) {
	var setups []float64
	var ds []*daemon
	for i := 0; i < n; i++ {
		d, err := startDaemon(r.bin)
		if err != nil {
			stopDaemons(r, ds)
			return nil, nil, err
		}
		ds = append(ds, d)
		t0 := time.Now()
		if warm != nil {
			if err := warm(d); err != nil {
				stopDaemons(r, ds)
				return nil, nil, err
			}
		}
		setups = append(setups, (d.setup + time.Since(t0)).Seconds())
	}
	return ds, setups, nil
}

// stopDaemons stops every daemon not stopped yet; each unclean stop is a
// failed operation. Callers also defer it, so an error return stops them
// too.
func stopDaemons(r *run, ds []*daemon) {
	for _, d := range ds {
		if d.stopped {
			continue
		}
		d.stopped = true
		r.attempted++
		if err := d.stop(); err != nil {
			r.fail("daemon stop: %v", err)
		}
	}
}

// bodyReader returns a reader over parts without copying them.
func bodyReader(parts ...[]byte) (io.Reader, int64) {
	rs := make([]io.Reader, len(parts))
	var n int64
	for i, p := range parts {
		rs[i] = bytes.NewReader(p)
		n += int64(len(p))
	}
	return io.MultiReader(rs...), n
}

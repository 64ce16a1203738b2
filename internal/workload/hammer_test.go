package workload

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestBatchHammerWithMetricsScrapes runs the multi-tenant executor from
// several goroutines while the debug plane's /metrics endpoint is scraped
// concurrently — the -race gate for the workload counters, the par pool,
// and the plan cache all being hit at once.
func TestBatchHammerWithMetricsScrapes(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test")
	}
	m1 := testMatrix(t, 30, 512, 64, 3000, 1500)
	m2 := testMatrix(t, 31, 256, 64, 1500, 800)
	a := smallArch()
	din := dense.NewRandom(rand.New(rand.NewSource(32)), m1.N, a.K)

	srv := httptest.NewServer(obs.DebugMux(nil))
	defer srv.Close()

	const (
		submitters = 4
		batches    = 5
		scrapes    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, submitters+1)

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				br, err := RunBatch(context.Background(), &a, []Request{
					{Name: "spmm", Matrix: m1, Din: din},
					{Name: "spmv", Kernel: model.KernelSpMV, Matrix: m2, SkipFunctional: true},
					{Name: "sddmm", Kernel: model.KernelSDDMM, Matrix: m1, SkipFunctional: true},
				}, BatchOptions{})
				if err != nil {
					errs <- err
					return
				}
				if br.Makespan <= 0 {
					errs <- io.ErrUnexpectedEOF
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				resp.Body.Close()
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- io.ErrUnexpectedEOF
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

package workload

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Request is one kernel invocation inside a multi-tenant batch: a matrix, a
// kernel, and a partitioning policy. Requests sharing the same matrix and
// policy share one preprocessing plan within the batch.
type Request struct {
	// Name labels the request in results and timelines (defaults to
	// "req<i>").
	Name string
	// Kernel selects SpMM (zero value), SpMV, or SDDMM.
	Kernel model.Kernel
	// Strategy and Seed configure the partitioner; OpsPerMAC is the
	// semiring intensity (0 means 2).
	Strategy  hotcore.Strategy
	OpsPerMAC float64
	Seed      int64
	// Matrix is the sparse operand.
	Matrix *sparse.COO
	// Din is the dense operand: N×K for SpMM, N×1 for SpMV, and the shared
	// U=V factor (N×K) for SDDMM. Ignored with SkipFunctional.
	Din *dense.Matrix
	// SkipFunctional runs timing only for this request.
	SkipFunctional bool
}

// RequestResult reports one request's simulated execution and its slot on
// the shared accelerator's FIFO schedule.
type RequestResult struct {
	Name   string
	Kernel model.Kernel
	// Time is the request's own simulated runtime; Start and Finish place
	// it on the shared clock (requests run back to back in submission
	// order, so Finish(i) = Start(i) + Time(i) and Start(i+1) = Finish(i)).
	Time, Start, Finish float64
	// PlanShared reports whether an earlier request in submission order
	// has the same plan key, so this request reused that request's plan.
	PlanShared bool
	// Output is the functional SpMM/SpMV result; SDDMM holds the sampled
	// products for that kernel. Both nil with SkipFunctional.
	Output *dense.Matrix
	SDDMM  []float64
}

// BatchResult is the deterministic merge of a batch: per-request results in
// submission order and the shared-hardware makespan.
type BatchResult struct {
	Results  []RequestResult
	Makespan float64
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Timeline, when non-nil, records each request's simulator events under
	// "<Label>/<name>"; Label defaults to "batch".
	Timeline *obs.Timeline
	Label    string
}

// planKey identifies a shareable plan within one batch. The matrix is keyed
// by identity (pointer): batches name their operands by sharing *COO
// values, and identity keying keeps the cache from ever conflating two
// equal-but-distinct matrices.
func planKey(r *Request) string {
	return fmt.Sprintf("%p|%d|%d|%g|%d", r.Matrix, r.Strategy, r.Kernel, r.OpsPerMAC, r.Seed)
}

// RunBatch executes a mixed-kernel batch over one shared simulated
// accelerator. Preprocessing and per-request simulation fan out across the
// par pool (plans deduplicated by a singleflight cache, so N requests on
// one matrix preprocess once); the schedule merge is a serial pass in
// submission order — the determinism contract from internal/par — that
// lays the requests back to back on a single simulated clock, FIFO, as a
// non-preemptive accelerator queue would.
func RunBatch(ctx context.Context, a *arch.Arch, reqs []Request, opts BatchOptions) (*BatchResult, error) {
	if len(reqs) == 0 {
		return &BatchResult{}, nil
	}
	label := opts.Label
	if label == "" {
		label = "batch"
	}

	var plans par.Cache[string, *hotcore.Prep]
	// Requests that share a plan also share built unit pools: the batch's
	// unit cache keys on (grid, assignment, arch, kernel params), so only
	// the first request of each combination constructs pools.
	var units sim.UnitCache
	results := make([]RequestResult, len(reqs))
	err := par.ForEachErr(len(reqs), func(i int) error {
		r := &reqs[i]
		if r.Matrix == nil {
			return fmt.Errorf("workload: batch request %d has no matrix", i)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("req%d", i)
		}
		ops := r.OpsPerMAC
		if ops == 0 {
			ops = 2
		}
		plan, err := plans.Get(planKey(r), func() (*hotcore.Prep, error) {
			return hotcore.PreprocessCtx(ctx, r.Matrix, a, hotcore.Options{
				Strategy:  r.Strategy,
				OpsPerMAC: ops,
				Kernel:    r.Kernel,
				Seed:      r.Seed,
			})
		})
		if err != nil {
			return fmt.Errorf("workload: batch request %q: %w", name, err)
		}
		sr := semiring.PlusTimes()
		sr.OpsPerMAC = ops
		res, err := sim.Run(plan.Grid, plan.Partition.Hot, a, r.Din, sim.Options{
			Serial:         plan.Partition.Serial,
			Semiring:       &sr,
			SkipFunctional: r.SkipFunctional,
			Kernel:         r.Kernel,
			Timeline:       opts.Timeline,
			TimelineLabel:  label + "/" + name,
			Units:          &units,
		})
		if err != nil {
			return fmt.Errorf("workload: batch request %q: %w", name, err)
		}
		batchRequests.Inc()
		results[i] = RequestResult{
			Name:   name,
			Kernel: r.Kernel,
			Time:   res.Time,
			Output: res.Output,
			SDDMM:  res.SDDMM,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial reduction in submission order: the shared-accelerator FIFO.
	// Plan sharing is credited in the same order, whichever request's
	// build the cache happened to run first.
	out := &BatchResult{Results: results}
	seen := make(map[string]bool, len(reqs))
	clock := 0.0
	for i := range out.Results {
		key := planKey(&reqs[i])
		out.Results[i].PlanShared = seen[key]
		seen[key] = true
		out.Results[i].Start = clock
		clock += out.Results[i].Time
		out.Results[i].Finish = clock
	}
	out.Makespan = clock
	return out, nil
}

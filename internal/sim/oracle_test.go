package sim

// allocateNaive is the original allocation routine, kept verbatim as the
// executable specification the scratch-based allocate is verified against:
// the engine property test runs whole simulations under both and asserts
// bit-identical makespans, statistics, and per-step grants.
func allocateNaive(workers []workerState, pools []*pool, totalBW float64) {
	type claimant struct {
		w  *workerState
		bw float64
	}
	var cs []claimant
	byPool := make([][]int, len(pools)) // claimant indices per pool
	demand := make([]float64, len(pools))
	for wi := range workers {
		w := &workers[wi]
		w.grant = 0
		if w.unitIdx < 0 || w.remB <= 0 {
			continue
		}
		wcap := pools[w.pool].workerCap(w.idx)
		demand[w.pool] += wcap
		byPool[w.pool] = append(byPool[w.pool], len(cs))
		cs = append(cs, claimant{w, wcap})
	}
	if len(cs) == 0 {
		return
	}
	for pi, p := range pools {
		if p.linkBW <= 0 || demand[pi] <= p.linkBW || len(byPool[pi]) == 0 {
			continue
		}
		caps := make([]float64, len(byPool[pi]))
		for j, ci := range byPool[pi] {
			caps[j] = cs[ci].bw
		}
		for j, g := range waterfillNaive(caps, p.linkBW) {
			cs[byPool[pi][j]].bw = g
		}
	}
	caps := make([]float64, len(cs))
	for i, c := range cs {
		caps[i] = c.bw
	}
	for i, g := range waterfillNaive(caps, totalBW) {
		cs[i].w.grant = g
	}
}

// waterfillNaive is the allocating reference waterfill backing
// allocateNaive.
func waterfillNaive(caps []float64, budget float64) []float64 {
	grants := make([]float64, len(caps))
	unsat := make([]int, len(caps))
	for i := range unsat {
		unsat[i] = i
	}
	remaining := budget
	for len(unsat) > 0 && remaining > 0 {
		share := remaining / float64(len(unsat))
		still := unsat[:0]
		progressed := false
		for _, i := range unsat {
			if need := caps[i] - grants[i]; need <= share {
				grants[i] = caps[i]
				remaining -= need
				progressed = true
			} else {
				still = append(still, i)
			}
		}
		if !progressed {
			for _, i := range still {
				grants[i] += share
			}
			break
		}
		unsat = still
	}
	return grants
}

package control

// TenantDemand describes one tenant's offered load for the degradation
// planner, in the same terms the KKT allocator already holds: arrival rate,
// per-block FLOPs of the deployed ME-DNN, and its calibrated cumulative
// exit rates.
type TenantDemand struct {
	// ID names the tenant (the device ID); plans are returned in input
	// order, the ID is for diagnostics.
	ID string
	// ArrivalRate is the tenant's offered load in tasks per model second.
	ArrivalRate float64
	// BlockFLOPs is the per-block compute of the deployed model
	// (device block, edge block, cloud block).
	BlockFLOPs [3]float64
	// Sigma is the cumulative exit-rate vector: Sigma[i] of tasks have
	// exited at or before exit i+1 (Sigma[2] == 1).
	Sigma [3]float64
}

// edgeCostFLOPs returns the expected edge FLOPs one task costs under an
// exit cap. The edge always runs block 1 (the h1 path); block 2 runs only
// for tasks that did not exit at exit 1 and are allowed past it. Capping
// exit 3 to exit 2 moves no work off the edge — block 3 is cloud compute —
// which is exactly why the blind 3->2 degradation never relieved edge
// overload.
func (t TenantDemand) edgeCostFLOPs(cap int) float64 {
	c := t.BlockFLOPs[0]
	if cap >= 2 {
		c += (1 - t.Sigma[0]) * t.BlockFLOPs[1]
	}
	return c
}

// expectedAccuracy returns the expected per-task accuracy for this tenant
// under an exit cap, given the per-exit conditional accuracy profile
// (accuracy[i] is the accuracy of exit i+1). Tasks that would have exited
// deeper than the cap are answered by the cap's classifier instead.
func (t TenantDemand) expectedAccuracy(cap int, accuracy [3]float64) float64 {
	switch {
	case cap <= 1:
		return accuracy[0]
	case cap == 2:
		return t.Sigma[0]*accuracy[0] + (1-t.Sigma[0])*accuracy[1]
	default:
		return t.Sigma[0]*accuracy[0] + (t.Sigma[1]-t.Sigma[0])*accuracy[1] + (1-t.Sigma[1])*accuracy[2]
	}
}

// demandFLOPS returns the aggregate edge compute demand of the tenants
// under the given exit caps, in FLOPs per model second. caps shorter than
// tenants is padded with 3 (no cap).
func demandFLOPS(tenants []TenantDemand, caps []int) float64 {
	var demand float64
	for i, t := range tenants {
		cap := 3
		if i < len(caps) {
			cap = caps[i]
		}
		demand += t.ArrivalRate * t.edgeCostFLOPs(cap)
	}
	return demand
}

// aggregateAccuracy returns the rate-weighted mean expected accuracy of the
// tenants under the given exit caps — the objective the degradation plan
// maximizes. Zero total rate returns 0.
func aggregateAccuracy(tenants []TenantDemand, caps []int, accuracy [3]float64) float64 {
	var num, den float64
	for i, t := range tenants {
		cap := 3
		if i < len(caps) {
			cap = caps[i]
		}
		num += t.ArrivalRate * t.expectedAccuracy(cap, accuracy)
		den += t.ArrivalRate
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Plan chooses per-tenant exit caps (1..3) maximizing aggregate accuracy
// subject to the edge capacity bound: sum over tenants of
// ArrivalRate x edge FLOPs per task must not exceed budgetFLOPS.
//
// The plan starts every tenant at its full depth, greedily demotes the
// tenant with the smallest accuracy loss per edge FLOPS freed until demand
// fits, then re-promotes demoted tenants — most accuracy per FLOPS spent
// first — into whatever slack the last (indivisible) demotion left. The
// demote pass is the integral version of the fractional-knapsack solution
// to the LP relaxation; the restore pass closes the integrality gap the
// final oversized demotion opens. Because capping 3->2 frees no edge
// compute, the only demand-relieving demotion is to exit 1 (skip block 2),
// so plans are {1,3}-valued: a tenant either keeps its depth or serves from
// the first exit. Deterministic: ties resolve to the lowest input index.
// If even the all-1 plan exceeds the budget the all-1 plan is returned and
// admission control sheds the remainder.
func Plan(tenants []TenantDemand, accuracy [3]float64, budgetFLOPS float64) []int {
	caps := make([]int, len(tenants))
	for i := range caps {
		caps[i] = 3
	}
	relief := func(i int) float64 {
		t := tenants[i]
		return t.ArrivalRate * (t.edgeCostFLOPs(3) - t.edgeCostFLOPs(1))
	}
	lossRatio := func(i int) float64 {
		t := tenants[i]
		saveFLOPS := relief(i)
		if saveFLOPS <= 0 {
			return 0
		}
		return t.ArrivalRate * (t.expectedAccuracy(3, accuracy) - t.expectedAccuracy(1, accuracy)) / saveFLOPS
	}
	demand := demandFLOPS(tenants, caps)
	for demand > budgetFLOPS {
		best := -1
		var bestRatio float64
		for i := range tenants {
			if caps[i] <= 1 || relief(i) <= 0 {
				continue
			}
			if ratio := lossRatio(i); best < 0 || ratio < bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			break // nothing left to demote; admission sheds the rest
		}
		demand -= relief(best)
		caps[best] = 1
	}
	// Restore pass: the last demotion may have freed far more than needed;
	// give the slack back to the demoted tenants whose accuracy buys the
	// most per FLOPS re-spent.
	for {
		best := -1
		var bestRatio float64
		for i := range tenants {
			if caps[i] != 1 || relief(i) <= 0 || demand+relief(i) > budgetFLOPS {
				continue
			}
			if ratio := lossRatio(i); best < 0 || ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			return caps
		}
		demand += relief(best)
		caps[best] = 3
	}
}

// BlindPlan reproduces the pre-controller strawman this package replaces:
// when offered demand exceeds the budget, every tenant is uniformly capped
// to exit 2 regardless of its accuracy profile. Because 3->2 frees no edge
// compute the plan sacrifices deep-exit accuracy without relieving the
// overload — the dominated baseline of the degradation frontier that
// `leime-loadgen -policy-degrade blind` measures.
func BlindPlan(tenants []TenantDemand, budgetFLOPS float64) []int {
	caps := make([]int, len(tenants))
	full := 3
	if demandFLOPS(tenants, nil) > budgetFLOPS {
		full = 2
	}
	for i := range caps {
		caps[i] = full
	}
	return caps
}

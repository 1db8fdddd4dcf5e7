package control

// Route is one step of a task's path between its device and its edge: the
// blocks the device runs next, then the block it offers the edge. The
// wall-clock device (internal/runtime) and the model-clock simulator
// (internal/sim) both follow the routes Next returns, so a refused or
// unreachable hop takes the task down the same path on either clock.
type Route struct {
	// First and Last bound the blocks the device runs next, in order;
	// First is 0 when it runs none.
	First, Last int
	// Offer is the block the device then offers the edge; 0 ends the task
	// once the local blocks are done.
	Offer int
	// Shed ends the task unanswered: deadline admission proved it cannot
	// finish in time, and the slower device would not either.
	Shed bool
	// FellBack marks a capacity refusal (Verdict.OverBudget) the device
	// absorbs by running blocks itself.
	FellBack bool
	// Degraded marks an unreachable edge: the device runs every remaining
	// block.
	Degraded bool
}

// Next decides a task's next step after it offered block offered (1 or 2)
// to the edge, whose queue answered v, or which could not be reached. exit
// is the block the task leaves after. whole marks an offer of the whole
// task to a pipeline chain, which leaves no tenancy to continue under: a
// refusal runs every block on the device.
//
// offered == 0 starts a task the device keeps: it runs block 1, then
// offers block 2 if the exit is deeper. A served offer ends the device's
// part, since the edge runs the rest. A first-block capacity refusal is
// answered the same way as a task the device keeps; a later one runs the
// remaining blocks locally. Infeasible is tested before OverBudget: a
// task that cannot meet its deadline at the edge is shed, not re-run.
func Next(offered, exit int, whole bool, v Verdict, unreachable bool) Route {
	switch {
	case offered == 0:
		return keep(exit, Route{})
	case unreachable:
		return Route{First: offered, Last: exit, Degraded: true}
	case v.Infeasible:
		return Route{Shed: true}
	case !v.OverBudget:
		return Route{}
	case offered == 1 && !whole:
		return keep(exit, Route{FellBack: true})
	}
	return Route{First: offered, Last: exit, FellBack: true}
}

// keep runs block 1 on the device and offers block 2 when the exit is
// deeper.
func keep(exit int, r Route) Route {
	r.First, r.Last = 1, 1
	if exit > 1 {
		r.Offer = 2
	}
	return r
}

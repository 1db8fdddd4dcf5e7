package control

import "testing"

// hop is one outcome of offering a block to the edge, as Next reads it.
type hop struct {
	v           Verdict
	unreachable bool
}

var (
	served      = hop{}
	overBudget  = hop{v: Verdict{OverBudget: true}}
	infeasible  = hop{v: Verdict{Infeasible: true}}
	unreachable = hop{unreachable: true}
	// doomed is a refusal that is both infeasible and over budget, as a
	// deadline refusal is also a member of the overload family on the
	// wire: it must shed, not fall back.
	doomed = hop{v: Verdict{Infeasible: true, OverBudget: true}}
)

// TestNextRoutes pins every hop: a task the device keeps, an offer of
// block 1 (to an edge or, whole, to a pipeline chain) and an offer of
// block 2, each served, over budget, infeasible or unreachable, for a
// shallow and a deep exit.
func TestNextRoutes(t *testing.T) {
	both := []bool{false, true}
	cases := []struct {
		name    string
		offered int
		whole   []bool
		hops    []hop
		exit    int
		want    Route
	}{
		{"keep exit 1", 0, both, []hop{served, overBudget, infeasible, unreachable}, 1, Route{First: 1, Last: 1}},
		{"keep exit 3", 0, both, []hop{served, overBudget, infeasible, unreachable}, 3, Route{First: 1, Last: 1, Offer: 2}},

		{"block 1 served", 1, both, []hop{served}, 1, Route{}},
		{"block 1 served, deep", 1, both, []hop{served}, 3, Route{}},
		{"block 1 refused exit 1", 1, both, []hop{overBudget}, 1, Route{First: 1, Last: 1, FellBack: true}},
		{"block 1 refused exit 3", 1, []bool{false}, []hop{overBudget}, 3, Route{First: 1, Last: 1, Offer: 2, FellBack: true}},
		{"chain refused exit 3", 1, []bool{true}, []hop{overBudget}, 3, Route{First: 1, Last: 3, FellBack: true}},
		{"block 1 infeasible", 1, both, []hop{infeasible, doomed}, 1, Route{Shed: true}},
		{"block 1 infeasible, deep", 1, both, []hop{infeasible, doomed}, 3, Route{Shed: true}},
		{"block 1 unreachable exit 1", 1, both, []hop{unreachable}, 1, Route{First: 1, Last: 1, Degraded: true}},
		{"block 1 unreachable exit 3", 1, both, []hop{unreachable}, 3, Route{First: 1, Last: 3, Degraded: true}},

		{"block 2 served", 2, both, []hop{served}, 3, Route{}},
		{"block 2 refused exit 2", 2, both, []hop{overBudget}, 2, Route{First: 2, Last: 2, FellBack: true}},
		{"block 2 refused exit 3", 2, both, []hop{overBudget}, 3, Route{First: 2, Last: 3, FellBack: true}},
		{"block 2 infeasible", 2, both, []hop{infeasible, doomed}, 3, Route{Shed: true}},
		{"block 2 unreachable", 2, both, []hop{unreachable}, 3, Route{First: 2, Last: 3, Degraded: true}},
	}
	for _, c := range cases {
		for _, whole := range c.whole {
			for _, h := range c.hops {
				if got := Next(c.offered, c.exit, whole, h.v, h.unreachable); got != c.want {
					t.Errorf("%s (whole %v, %+v): Next = %+v, want %+v", c.name, whole, h, got, c.want)
				}
			}
		}
	}
}

// FuzzRoute follows Next from a fuzzed start (a kept or an offloaded task,
// alone or whole to a chain, with exit 1 to 3) through a fuzzed script of
// hop outcomes, one per offer; an offer past the script's end is served,
// and a served offer runs every remaining block at the edge. The task must
// end within three offers, either completed or shed; a completed task runs
// each block up to its exit exactly once, on exactly one side, and a shed
// one runs none twice; FellBack holds iff some hop was over budget and
// Degraded iff some hop was unreachable. The seed corpus is
// testdata/fuzz/FuzzRoute; a script byte picks served, over budget,
// infeasible or unreachable by its value mod 4.
func FuzzRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, offload, whole bool, exitByte uint8, script []byte) {
		outcomes := []hop{served, overBudget, infeasible, unreachable}
		exit := 1 + int(exitByte%3)
		var device, edge [4]int
		route := Route{Offer: 1}
		if !offload {
			route = Next(0, exit, whole, Verdict{}, false)
		}
		sawOver, sawUnreachable := false, false
		fellBack, degraded := false, false
		offers, shed, completed := 0, false, false
		for !shed && !completed {
			if route.First > 0 {
				if route.First > route.Last || route.Last > exit {
					t.Fatalf("route %+v runs blocks outside 1..%d", route, exit)
				}
				for b := route.First; b <= route.Last; b++ {
					device[b]++
				}
			}
			if route.Offer == 0 {
				completed = true
				break
			}
			if route.Offer > exit || offers == 3 {
				t.Fatalf("offer %d (%d before it) of a task with exit %d", route.Offer, offers, exit)
			}
			offers++
			h := served
			if offers <= len(script) {
				h = outcomes[script[offers-1]%4]
			}
			if h == served {
				for b := route.Offer; b <= exit; b++ {
					edge[b]++
				}
				completed = true
				break
			}
			sawOver = sawOver || h == overBudget
			sawUnreachable = sawUnreachable || h == unreachable
			route = Next(route.Offer, exit, whole, h.v, h.unreachable)
			fellBack = fellBack || route.FellBack
			degraded = degraded || route.Degraded
			shed = route.Shed
		}
		for b := 1; b <= 3; b++ {
			ran := device[b] + edge[b]
			switch {
			case ran > 1:
				t.Fatalf("block %d ran %d times (device %d, edge %d)", b, ran, device[b], edge[b])
			case b > exit && ran != 0:
				t.Fatalf("block %d ran past exit %d", b, exit)
			case completed && b <= exit && ran != 1:
				t.Fatalf("completed task with exit %d never ran block %d", exit, b)
			}
		}
		if fellBack != sawOver {
			t.Fatalf("FellBack %v, but over-budget hop seen %v", fellBack, sawOver)
		}
		if degraded != sawUnreachable {
			t.Fatalf("Degraded %v, but unreachable hop seen %v", degraded, sawUnreachable)
		}
	})
}

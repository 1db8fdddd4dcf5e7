package exitsetting

import (
	"testing"

	"leime/internal/cluster"
	"leime/internal/model"
)

func TestBandwidthSweepSolvesEveryPoint(t *testing.T) {
	in := paperInstance(t, model.InceptionV3(), cluster.TestbedEnv(cluster.RaspberryPi3B))
	pts, err := BandwidthSweep(in.Profile, in.Sigma, in.Env, []float64{1, 4, 16, 64})
	if err != nil {
		t.Fatalf("BandwidthSweep: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	for _, pt := range pts {
		if pt.Setting.E1 < 1 || pt.Setting.E1 >= pt.Setting.E2 {
			t.Errorf("%s: bad setting %+v", pt.Label, pt.Setting)
		}
		if pt.Setting.Cost <= 0 {
			t.Errorf("%s: non-positive cost", pt.Label)
		}
	}
	// More bandwidth can only improve (or preserve) the optimal cost: with a
	// faster uplink every combination's cost is <= its slow-uplink cost.
	for i := 1; i < len(pts); i++ {
		if pts[i].Setting.Cost > pts[i-1].Setting.Cost+1e-12 {
			t.Errorf("optimal cost rose with bandwidth: %s=%v -> %s=%v",
				pts[i-1].Label, pts[i-1].Setting.Cost, pts[i].Label, pts[i].Setting.Cost)
		}
	}
}

func TestEdgeLoadSweepShiftsSecondExit(t *testing.T) {
	in := paperInstance(t, model.InceptionV3(), cluster.TestbedEnv(cluster.RaspberryPi3B))
	pts, err := EdgeLoadSweep(in.Profile, in.Sigma, in.Env, []float64{1, 0.25, 0.05})
	if err != nil {
		t.Fatalf("EdgeLoadSweep: %v", err)
	}
	// Heavier load (smaller share) pushes the Second exit no deeper
	// (Fig. 2(b) direction).
	for i := 1; i < len(pts); i++ {
		if pts[i].Setting.E2 > pts[i-1].Setting.E2 {
			t.Errorf("Second exit deepened as edge load grew: %s e2=%d -> %s e2=%d",
				pts[i-1].Label, pts[i-1].Setting.E2, pts[i].Label, pts[i].Setting.E2)
		}
	}
}

func TestSensitivityRejectsBadEnv(t *testing.T) {
	in := paperInstance(t, model.VGG16(), cluster.TestbedEnv(cluster.RaspberryPi3B))
	_, err := sensitivity(in.Profile, in.Sigma, []struct {
		Label string
		Env   cluster.Env
	}{{Label: "broken", Env: cluster.Env{}}})
	if err == nil {
		t.Error("invalid environment accepted")
	}
}

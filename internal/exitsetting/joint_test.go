package exitsetting

import (
	"math"
	"math/rand"
	"testing"

	"leime/internal/cluster"
	"leime/internal/model"
)

func TestCostWithRatioZeroEqualsP0(t *testing.T) {
	// x = 0 must reduce exactly to the paper's P0 cost model.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := 5 + rng.Intn(15)
		in := mustInstance(t, randomProfile(rng, m), randomSigma(rng, m), randomEnv(rng))
		e1 := 1 + rng.Intn(m-2)
		e2 := e1 + 1 + rng.Intn(m-e1-1)
		p0 := in.Cost(e1, e2)
		got := in.costWithRatio(e1, e2, 0)
		if math.Abs(got-p0) > 1e-9*math.Abs(p0) {
			t.Fatalf("trial %d: costWithRatio(.., 0) = %v, P0 cost = %v", trial, got, p0)
		}
	}
}

func TestSolveJointNeverWorseThanSequential(t *testing.T) {
	// The joint optimum searches a superset of the sequential pipeline's
	// space, so it can never cost more.
	rng := rand.New(rand.NewSource(19))
	improved := 0
	for trial := 0; trial < 100; trial++ {
		m := 5 + rng.Intn(15)
		in := mustInstance(t, randomProfile(rng, m), randomSigma(rng, m), randomEnv(rng))
		joint := in.SolveJoint()
		seq := in.SolveSequential()
		if joint.Cost > seq.Cost+1e-12 {
			t.Fatalf("trial %d: joint %v worse than sequential %v", trial, joint.Cost, seq.Cost)
		}
		if joint.Cost < seq.Cost*(1-1e-9) {
			improved++
		}
	}
	if improved == 0 {
		t.Error("joint optimization never improved on sequential; extension vacuous")
	}
}

func TestSolveJointValidOutput(t *testing.T) {
	ds := paperInstance(t, model.InceptionV3(), cluster.TestbedEnv(cluster.RaspberryPi3B))
	joint := ds.SolveJoint()
	m := ds.Profile.NumExits()
	if !(1 <= joint.E1 && joint.E1 < joint.E2 && joint.E2 < m) {
		t.Errorf("invalid joint exits %+v", joint)
	}
	if joint.Ratio < 0 || joint.Ratio > 1 {
		t.Errorf("joint ratio %v out of range", joint.Ratio)
	}
	if joint.Cost <= 0 || math.IsInf(joint.Cost, 0) {
		t.Errorf("joint cost %v", joint.Cost)
	}
}

func TestCostWithRatioInterpolatesLinearly(t *testing.T) {
	// T(E, x) is affine in x: T(E, 0.5) must be the midpoint of the corners.
	in := paperInstance(t, model.ResNet34(), cluster.TestbedEnv(cluster.JetsonNano))
	e1, e2 := 2, 9
	lo := in.costWithRatio(e1, e2, 0)
	hi := in.costWithRatio(e1, e2, 1)
	mid := in.costWithRatio(e1, e2, 0.5)
	if math.Abs(mid-(lo+hi)/2) > 1e-12*(lo+hi) {
		t.Errorf("midpoint %v != (%v+%v)/2", mid, lo, hi)
	}
}

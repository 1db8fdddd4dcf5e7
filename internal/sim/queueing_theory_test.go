package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestStationMatchesMD1Theory validates the discrete-event engine against
// closed-form queueing theory: a single-server station with Poisson arrivals
// and deterministic service is an M/D/1 queue, whose mean waiting time is
// exactly rho*s / (2*(1-rho)). Agreement here means the engine's FIFO
// single-server semantics are not just self-consistent but correct.
func TestStationMatchesMD1Theory(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		rho := rho
		const service = 1.0 // seconds per job
		lambda := rho / service
		const jobs = 60000

		var e engine
		st := newStation("md1")
		rng := rand.New(rand.NewSource(int64(1000 * rho)))
		var sumSojourn float64
		arrival := 0.0
		for i := 0; i < jobs; i++ {
			arrival += rng.ExpFloat64() / lambda
			born := arrival
			e.At(arrival, func() {
				st.Submit(&e, service, 0, func(finish float64) {
					sumSojourn += finish - born
				})
			})
		}
		if _, err := e.Run(jobs * 4); err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		meanSojourn := sumSojourn / jobs
		wantWait := rho * service / (2 * (1 - rho))
		want := service + wantWait
		if rel := math.Abs(meanSojourn-want) / want; rel > 0.05 {
			t.Errorf("rho=%v: mean sojourn %v, M/D/1 predicts %v (%.1f%% off)",
				rho, meanSojourn, want, rel*100)
		}
	}
}

// TestStationMatchesMM1Theory repeats the validation with exponential
// service times (M/M/1): mean sojourn is s/(1-rho).
func TestStationMatchesMM1Theory(t *testing.T) {
	const rho = 0.7
	const service = 0.5
	lambda := rho / service
	const jobs = 60000

	var e engine
	st := newStation("mm1")
	rng := rand.New(rand.NewSource(77))
	var sumSojourn float64
	arrival := 0.0
	for i := 0; i < jobs; i++ {
		arrival += rng.ExpFloat64() / lambda
		born := arrival
		dur := rng.ExpFloat64() * service
		e.At(arrival, func() {
			st.Submit(&e, dur, 0, func(finish float64) {
				sumSojourn += finish - born
			})
		})
	}
	if _, err := e.Run(jobs * 4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	meanSojourn := sumSojourn / jobs
	want := service / (1 - rho)
	if rel := math.Abs(meanSojourn-want) / want; rel > 0.08 {
		t.Errorf("mean sojourn %v, M/M/1 predicts %v (%.1f%% off)", meanSojourn, want, rel*100)
	}
}

// TestStationUtilizationMatchesRho checks the utilization accounting against
// the offered load.
func TestStationUtilizationMatchesRho(t *testing.T) {
	const rho = 0.5
	const service = 0.2
	lambda := rho / service
	const jobs = 20000

	var e engine
	st := newStation("util")
	rng := rand.New(rand.NewSource(5))
	arrival := 0.0
	for i := 0; i < jobs; i++ {
		arrival += rng.ExpFloat64() / lambda
		e.At(arrival, func() {
			st.Submit(&e, service, 0, nil)
		})
	}
	if _, err := e.Run(jobs * 4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	horizon := e.Now()
	if got := st.Utilization(horizon); math.Abs(got-rho) > 0.05 {
		t.Errorf("utilization %v, offered load %v", got, rho)
	}
	if st.served != jobs {
		t.Errorf("served %d, want %d", st.served, jobs)
	}
}

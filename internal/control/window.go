package control

import "sort"

// windowLatN is the sliding sample of completion latencies the p99 guard
// sorts over; 128 completions give a usable 99th percentile while keeping
// the periodic sort trivial.
const windowLatN = 128

// p99RecomputeEvery bounds how often the latency guard re-sorts its sample;
// between recomputes the cached percentile is used.
const p99RecomputeEvery = 16

// batchViability is the minimum expected arrivals per full window
// (rate x cap) below which batching is turned off entirely: holding a
// window that one job rides alone buys no amortization and costs the
// full delay in latency.
const batchViability = 2.0

// WindowConfig parameterizes one adaptive batch window controller.
type WindowConfig struct {
	// MaxSize is the batch size cap the window feeds (jobs per batch).
	MaxSize int
	// DelayCapSec is the upper bound on the window in model seconds — the
	// statically tuned optimum the adaptive controller may approach but
	// never exceed.
	DelayCapSec float64
	// TargetP99Sec is the latency objective: when the observed p99 of
	// completion latencies exceeds it the window is halved. Zero disables
	// the latency guard.
	TargetP99Sec float64
	// Gain is the smoothing applied per retarget in (0, 1]; non-positive
	// selects 0.2.
	Gain float64
	// RateGain is the EWMA weight for the arrival-rate estimate in (0, 1];
	// non-positive selects 0.1.
	RateGain float64
}

// withDefaults resolves zero gains to the documented defaults.
func (c WindowConfig) withDefaults() WindowConfig {
	if c.Gain <= 0 || c.Gain > 1 {
		c.Gain = 0.2
	}
	if c.RateGain <= 0 || c.RateGain > 1 {
		c.RateGain = 0.1
	}
	return c
}

// Window adapts a batch window to the observed arrival process. The law,
// applied on every arrival:
//
//	rate    <- EWMA of instantaneous arrival rate (1/gap)
//	target  = min(DelayCapSec, (MaxSize-1)/rate)   fill time of a full batch
//	target  = 0 when rate*DelayCapSec < 2          too sparse to ever batch
//	target  = min(target, delay/2) when p99 > TargetP99Sec
//	delay  += Gain * (target - delay)
//
// Under saturation the fill time shrinks below the cap and the window rides
// the cap — the statically tuned optimum — while sparse arrivals collapse
// the window to zero, so an unloaded executor serves singles with no added
// latency. All timestamps are caller-clock seconds; the controller is
// deterministic in its observation stream. A Window is not safe for
// concurrent use; a Queue's driver serializes it.
type Window struct {
	cfg WindowConfig

	seen        bool
	lastSec     float64
	arrivalRate float64
	lat         [windowLatN]float64
	latN        int                 // samples stored (saturates at windowLatN)
	latIdx      int                 // ring cursor
	latSince    int                 // observations since the cached p99 was computed
	sorted      [windowLatN]float64 // percentile99's scratch copy of lat
	p99Sec      float64
	delaySec    float64
}

// NewWindow returns a window controller starting closed (zero delay): an
// executor batches nothing until arrivals prove co-arrival is likely.
func NewWindow(cfg WindowConfig) *Window {
	return &Window{cfg: cfg.withDefaults()}
}

// ObserveArrival records one admission at the given caller-clock time and
// retargets the window.
func (w *Window) ObserveArrival(nowSec float64) {
	if w.seen {
		gapSec := nowSec - w.lastSec
		if gapSec < 1e-9 {
			gapSec = 1e-9
		}
		inst := 1 / gapSec
		w.arrivalRate += w.cfg.RateGain * (inst - w.arrivalRate)
	}
	w.seen = true
	w.lastSec = nowSec
	w.retarget()
}

// ObserveLatency records one completed task's latency (wait plus service,
// caller-clock seconds) for the p99 guard.
func (w *Window) ObserveLatency(latencySec float64) {
	w.lat[w.latIdx] = latencySec
	w.latIdx = (w.latIdx + 1) % windowLatN
	if w.latN < windowLatN {
		w.latN++
	}
	w.latSince++
	if w.latSince >= p99RecomputeEvery {
		w.latSince = 0
		w.p99Sec = w.percentile99()
	}
}

// percentile99 sorts a copy of the sample and returns its 99th percentile.
func (w *Window) percentile99() float64 {
	if w.latN == 0 {
		return 0
	}
	buf := w.sorted[:w.latN]
	copy(buf, w.lat[:w.latN])
	sort.Float64s(buf)
	idx := (99*w.latN + 99) / 100 // ceil(0.99*n), 1-based
	if idx > w.latN {
		idx = w.latN
	}
	return buf[idx-1]
}

// retarget applies the control law.
func (w *Window) retarget() {
	cfg := w.cfg
	if cfg.MaxSize <= 1 || cfg.DelayCapSec <= 0 {
		w.delaySec = 0
		return
	}
	var targetSec float64
	if w.arrivalRate > 0 {
		fillSec := float64(cfg.MaxSize-1) / w.arrivalRate
		if fillSec < cfg.DelayCapSec {
			targetSec = fillSec
		} else {
			targetSec = cfg.DelayCapSec
		}
		if w.arrivalRate*cfg.DelayCapSec < batchViability {
			targetSec = 0
		}
	}
	if cfg.TargetP99Sec > 0 && w.p99Sec > cfg.TargetP99Sec {
		if half := w.delaySec / 2; half < targetSec {
			targetSec = half
		}
	}
	w.delaySec += cfg.Gain * (targetSec - w.delaySec)
	if diff := w.delaySec - targetSec; diff < 1e-9 && diff > -1e-9 {
		w.delaySec = targetSec
	}
}

// DelaySec returns the current batch window in model seconds.
func (w *Window) DelaySec() float64 {
	return w.delaySec
}

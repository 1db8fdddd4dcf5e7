package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"leime"
	"leime/internal/metrics"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/runtime"
	"leime/internal/sim"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// The device-e2e workload is the paper's own experiment: live devices run
// the Lyapunov policy against one edge and one cloud, assembled the way
// testbed.go assembles it (which has no Tracer field, hence this copy).
const (
	deviceScale      = runtime.Scale(0.05)
	deviceTauSec     = 1.0
	deviceV          = 1e4
	deviceArrivals   = 4.0 // tasks per slot per device
	deviceWarmSlots  = 20
	deviceUplinkMbps = 10.0
	deviceUplinkLat  = 20 * time.Millisecond
)

// deviceNodes is the fleet: the devices are the system under test and sleep
// most of the time, so it takes four to load the edge at all.
func deviceNodes() []leime.Node {
	return []leime.Node{leime.RaspberryPi3B, leime.RaspberryPi3B, leime.JetsonNano, leime.JetsonNano}
}

// deviceSlots converts a measurement window into the slot horizon.
func deviceSlots(window time.Duration) int {
	return deviceWarmSlots + int(window.Seconds()/(deviceTauSec*float64(deviceScale))+0.5)
}

// deviceArrivalSeed is device i's arrival-process seed under a run seed.
func deviceArrivalSeed(seed int64, i int) int64 { return seed + int64(i)*97 + 1 }

// deviceScheduleHash hashes every device's per-slot arrival counts, the
// seeded input of the workload (exits and offload coins are drawn by the
// devices themselves from the same seed).
func deviceScheduleHash(seed int64, slots int) (string, error) {
	h := fnv.New64a()
	for i := range deviceNodes() {
		p, err := trace.NewPoisson(deviceArrivals, deviceArrivalSeed(seed, i))
		if err != nil {
			return "", err
		}
		for t := 0; t < slots; t++ {
			fmt.Fprintf(h, "%d:%d:%d;", i, t, p.Next())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// deviceRun is one device-e2e run: the cloud and edge stay up for its
// duration, the devices run their whole horizon and report statistics.
type deviceRun struct {
	stats []*runtime.DeviceStats
	// ready is when the last device finished registering.
	ready time.Time
	// usage brackets the post-warm-up part of the run.
	before, after usage
	// marks are the readings at the slice boundaries of the measured window.
	marks []deviceMark
	proc  procWatch
}

// deviceMark is one boundary reading: the process counters, and the count
// and sum (model seconds) of completion times the devices have observed.
type deviceMark struct {
	usage usage
	count uint64
	sum   float64
}

// watchDevices reads the process counters and the devices' completion-time
// histograms at each of the slices+1 boundaries of the window starting at
// from, and delivers the readings once the last one is taken.
func watchDevices(from time.Time, window time.Duration, hists []*telemetry.Histogram) <-chan []deviceMark {
	out := make(chan []deviceMark, 1)
	go func() {
		marks := make([]deviceMark, 0, slices+1)
		for k := 0; k <= slices; k++ {
			time.Sleep(time.Until(from.Add(window * time.Duration(k) / slices)))
			mark := deviceMark{usage: readUsage()}
			for _, h := range hists {
				mark.count += h.Count()
				mark.sum += h.Sum()
			}
			marks = append(marks, mark)
		}
		out <- marks
	}()
	return out
}

// runDevices assembles the testbed and runs every device for the given slot
// horizon. With stopAtReady the devices stop at the first slot boundary, so
// the call measures set-up alone.
func runDevices(seed int64, slots int, stopAtReady bool, tr *telemetry.Tracer) (*deviceRun, error) {
	// The devices keep their per-task times private; their completion-time
	// histograms (count and sum) are the only per-slice view from outside.
	reg := telemetry.NewRegistry()
	sys, err := buildModel("inception-v3")
	if err != nil {
		return nil, err
	}
	params, env := sys.Params(), sys.Env()
	cloud, err := runtime.StartCloud(runtime.CloudConfig{
		Addr: "127.0.0.1:0", FLOPS: env.CloudFLOPS, Block3FLOPs: params.Mu[2], TimeScale: deviceScale, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: env.EdgeFLOPS, Model: params, CloudAddr: cloud.Addr(),
		CloudLink: netem.Link{
			BandwidthBps: env.EdgeCloud.BandwidthBps,
			Latency:      time.Duration(env.EdgeCloud.LatencySec * float64(time.Second)),
		},
		TimeScale: deviceScale, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	defer edge.Close()

	nodes := deviceNodes()
	run := &deviceRun{stats: make([]*runtime.DeviceStats, len(nodes))}
	errs := make([]error, len(nodes))
	stop := make(chan struct{})
	var marks <-chan []deviceMark // set by the last device to become ready
	var readyMu sync.Mutex
	readyLeft := len(nodes)
	var wg sync.WaitGroup
	hists := make([]*telemetry.Histogram, len(nodes))
	for i, node := range nodes {
		id := fmt.Sprintf("device-%d", i+1)
		hists[i] = reg.Histogram("leime_tct_seconds", "", nil, telemetry.Label{Key: "device", Value: id})
		arrivals, err := trace.NewPoisson(deviceArrivals, deviceArrivalSeed(seed, i))
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, node leime.Node) {
			defer wg.Done()
			run.stats[i], errs[i] = runtime.RunDevice(runtime.DeviceConfig{
				ID: id, FLOPS: node.FLOPS, Model: params, EdgeAddr: edge.Addr(),
				Uplink:   netem.Link{BandwidthBps: leime.Mbps(deviceUplinkMbps), Latency: deviceUplinkLat},
				Arrivals: arrivals, ArrivalMean: deviceArrivals,
				TauSec: deviceTauSec, V: deviceV, Slots: slots, WarmupSlots: deviceWarmSlots,
				TimeScale: deviceScale, AdaptEvery: 10, Seed: seed + int64(i)*97,
				Tracer: tr, Metrics: reg, Stop: stop,
				Ready: func() {
					readyMu.Lock()
					defer readyMu.Unlock()
					if readyLeft--; readyLeft > 0 {
						return
					}
					run.ready = time.Now()
					if stopAtReady {
						close(stop)
						return
					}
					// The devices align slots to their own start; the window is
					// read on the benchmark's clock, a few milliseconds off theirs.
					warm := deviceScale.Seconds(deviceWarmSlots * deviceTauSec)
					window := deviceScale.Seconds(float64(slots-deviceWarmSlots) * deviceTauSec)
					marks = watchDevices(run.ready.Add(warm), window, hists)
				},
			})
		}(i, node)
	}
	stopWatch := make(chan struct{})
	watch := watchProc(stopWatch)
	wg.Wait()
	if marks != nil {
		run.marks = <-marks
		run.before = run.marks[0].usage
	}
	run.after = readUsage()
	close(stopWatch)
	run.proc = <-watch
	return run, errors.Join(errs...)
}

// countLE returns how many of the summary's observations are <= v, by
// bisecting on nearest-rank percentiles (the summary keeps its values
// private). The summary must be unbounded, as DeviceStats.TCT is.
func countLE(s *metrics.Summary, v float64) int {
	n := s.Count()
	lo, hi := 0, n // invariant: rank lo is <= v, rank hi+1 is not
	for lo < hi {
		r := (lo + hi + 1) / 2
		if s.Percentile(100*(float64(r)-0.5)/float64(n)) <= v {
			lo = r
		} else {
			hi = r - 1
		}
	}
	return lo
}

// unionQuantile returns the nearest-rank q-quantile (q in (0, 1]) of the
// pooled observations of several summaries.
func unionQuantile(sums []*metrics.Summary, q float64) float64 {
	total, hi := 0, 0.0
	for _, s := range sums {
		total += s.Count()
		if m := s.Max(); m > hi {
			hi = m
		}
	}
	if total == 0 {
		return 0
	}
	rank := int(q*float64(total) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	lo := 0.0
	for i := 0; i < 64; i++ { // halve [lo, hi] to float precision
		mid := (lo + hi) / 2
		below := 0
		for _, s := range sums {
			below += countLE(s, mid)
		}
		if below >= rank {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// deviceMeasured converts the devices' own statistics into the common
// measurement record. Completion times come back in model seconds and are
// reported in wall milliseconds like every other workload.
func deviceMeasured(run *deviceRun, window, limit time.Duration) *measured {
	m := &measured{window: window, before: run.before, after: run.after, proc: run.proc}
	toMS := float64(deviceScale) * 1000
	limitModelSec := deviceScale.ModelSeconds(limit)
	sums := make([]*metrics.Summary, len(run.stats))
	var sum float64
	for i, st := range run.stats {
		sums[i] = &st.TCT
		n := st.TCT.Count()
		sum += st.TCT.Mean() * float64(n)
		m.tct.Samples += n
		m.good += countLE(&st.TCT, limitModelSec)
		for e, c := range st.ExitCounts {
			m.servedExits[e] += c
		}
		if st.Generated != st.Completed {
			m.violations = append(m.violations, fmt.Sprintf("device %d generated %d tasks and accounted for %d", i+1, st.Generated, st.Completed))
		}
		if st.Errors != 0 {
			m.violations = append(m.violations, fmt.Sprintf("device %d failed %d tasks", i+1, st.Errors))
		}
		m.errored += st.Errors
	}
	// The devices count post-warm-up completions only in TCT; generated and
	// completed are therefore taken from it, so they cover the same window
	// as every other workload's.
	m.completed = m.tct.Samples
	m.generated = m.completed + m.errored
	for k := 1; k < len(run.marks); k++ {
		a, b := run.marks[k-1], run.marks[k]
		st := sliceStat{completed: int(b.count - a.count)}
		st.good = st.completed // the histograms cannot tell a late task apart
		if st.completed > 0 {
			st.meanMS = (b.sum - a.sum) / float64(st.completed) * toMS
		}
		m.perSlice = append(m.perSlice, st)
	}
	if m.tct.Samples > 0 {
		m.tct.Mean = sum / float64(m.tct.Samples) * toMS
		m.tct.P50 = unionQuantile(sums, 0.50) * toMS
		m.tct.P99 = unionQuantile(sums, 0.99) * toMS
	}
	return m
}

// deviceSimConfig is the event simulator's twin of the device-e2e workload,
// for the model-reconciliation metrics.
func deviceSimConfig(sys *leime.System, seed int64, slots int) sim.EventConfig {
	env := sys.Env()
	nodes := deviceNodes()
	devs := make([]sim.DeviceSpec, len(nodes))
	for i, n := range nodes {
		devs[i] = sim.DeviceSpec{Device: offload.Device{
			FLOPS: n.FLOPS, BandwidthBps: leime.Mbps(deviceUplinkMbps), LatencySec: deviceUplinkLat.Seconds(), ArrivalMean: deviceArrivals,
		}}
	}
	return sim.EventConfig{
		Model: sys.Params(), Devices: devs, EdgeFLOPS: env.EdgeFLOPS, CloudFLOPS: env.CloudFLOPS, EdgeCloud: env.EdgeCloud,
		TauSec: deviceTauSec, V: deviceV, Slots: slots, WarmupSlots: deviceWarmSlots, Seed: seed,
	}
}

// Command leime-sim runs a custom simulation described by a JSON scenario
// file — architecture, fleet, network conditions, arrival processes and
// offloading policies — without writing Go.
//
// Example scenario (see -example to print one):
//
//	{
//	  "name": "mixed-fleet",
//	  "arch": "resnet-34",
//	  "edge_share": 0.5,
//	  "devices": [
//	    {"count": 3, "hardware": "pi", "rate": 2, "policy": "leime"},
//	    {"count": 1, "hardware": "nano", "rate": 5, "bandwidth_mbps": 20}
//	  ],
//	  "slots": 400,
//	  "simulator": "event"
//	}
package main

import (
	"flag"
	"fmt"
	"os"

	"leime/internal/metrics"
)

const exampleScenario = `{
  "name": "mixed-fleet",
  "arch": "resnet-34",
  "edge_share": 0.5,
  "devices": [
    {"count": 3, "hardware": "pi", "rate": 2, "policy": "leime"},
    {"count": 1, "hardware": "nano", "rate": 5, "bandwidth_mbps": 20}
  ],
  "slots": 400,
  "simulator": "event"
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leime-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file    = flag.String("scenario", "", "path to a JSON scenario file (- for stdin)")
		example = flag.Bool("example", false, "print an example scenario and exit")
	)
	flag.Parse()

	if *example {
		fmt.Print(exampleScenario)
		return nil
	}
	if *file == "" {
		return fmt.Errorf("need -scenario <file> (or -example)")
	}
	in := os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc, err := load(in)
	if err != nil {
		return err
	}
	res, err := sc.run()
	if err != nil {
		return err
	}
	fmt.Printf("scenario:      %s (%s, %s simulator)\n", res.Scenario, sc.Arch, sc.Simulator)
	fmt.Printf("fleet:         %d devices, %g tasks\n", res.Devices, res.Tasks)
	fmt.Printf("mean TCT:      %.4f s\n", res.MeanTCT)
	if res.P99TCT > 0 {
		fmt.Printf("P99 TCT:       %.4f s\n", res.P99TCT)
	}
	fmt.Printf("mean offload:  %.3f\n", res.MeanRatio)
	if sc.DeadlineSec > 0 {
		fmt.Printf("deadline:      %.0f%% of tasks missed the %.3fs budget\n", 100*res.DeadlineMissRate, sc.DeadlineSec)
	}
	if sc.Simulator == "slot" {
		fmt.Printf("final backlog: %.0f tasks\n", res.FinalBacklog)
	}
	if res.TCT != nil {
		fmt.Println("\nTCT distribution (s):")
		fmt.Print(metrics.Histogram{Buckets: 12}.Render(res.TCT))
	}
	return nil
}

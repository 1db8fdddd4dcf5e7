// Quickstart: build a LEIME system for one device, inspect the optimal exit
// setting, compare it against the paper's baselines, and run a short
// simulated workload.
package main

import (
	"fmt"
	"log"

	"leime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Build: calibrate exit thresholds on a CIFAR-10-like workload and
	// solve the exit-setting problem for a Raspberry Pi behind 10 Mbps WiFi.
	sys, err := leime.Build(leime.Options{
		Arch: "inception-v3",
		Env:  leime.TestbedEnv(leime.RaspberryPi3B),
	})
	if err != nil {
		return err
	}
	e1, e2, e3 := sys.Exits()
	fmt.Printf("== LEIME quickstart: %s on a Raspberry Pi 3B+\n", sys.Arch())
	fmt.Printf("optimal exits: First=exit-%d Second=exit-%d Third=exit-%d (expected TCT %.1f ms)\n\n",
		e1, e2, e3, sys.ExpectedTCT()*1000)

	// 2. Compare against the baselines of the paper's evaluation.
	costs, err := sys.CompareStrategies()
	if err != nil {
		return err
	}
	fmt.Println("exit-setting schemes (expected per-task completion time):")
	for _, c := range costs {
		fmt.Printf("  %-13s exits (%2d, %2d)  %.1f ms  (%.2fx LEIME)\n",
			c.Name, c.E1, c.E2, c.TCT*1000, c.TCT/costs[0].TCT)
	}

	// 3. Simulate 200 slots of Poisson traffic through the full
	// device-edge-cloud pipeline with online offloading.
	res, err := sys.SimulateTasks(leime.SimOptions{ArrivalRate: 6, Slots: 200})
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated %d tasks: mean TCT %.1f ms, P99 %.1f ms, exits [%d %d %d], mean offload ratio %.2f\n",
		res.Completed, res.TCT.Mean()*1000, res.TCT.Percentile(99)*1000,
		res.ExitCounts[0], res.ExitCounts[1], res.ExitCounts[2], res.Ratio.Mean())
	return nil
}

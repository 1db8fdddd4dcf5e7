package bench

import (
	"fmt"
	"io"

	"leime/internal/cluster"
	"leime/internal/metrics"
	"leime/internal/model"
)

// fig8 reproduces the per-model comparison of Fig. 8: average TCT of the
// four schemes under each DNN on the Raspberry Pi and the Jetson Nano.
// Paper: LEIME achieves 1.6–13.2x speedup on the Pi and 1.1–10.3x on the
// Nano; Neurosurgeon tracks LEIME's shape (same partition) but slower;
// Edgent and DDNN fluctuate widely across models.
func fig8() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "Fig. 8: TCT per DNN model on Raspberry Pi and Jetson Nano, four schemes",
		Run:   runFig8,
	}
}

func runFig8(w io.Writer, quick bool) error {
	devices := []cluster.Node{cluster.RaspberryPi3B, cluster.JetsonNano}
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
	}
	schemes := paperSchemes()
	for _, dev := range devices {
		fmt.Fprintf(w, "TCT (s) on %s:\n", dev.Name)
		header := []string{"model"}
		for _, sc := range schemes {
			header = append(header, sc.name)
		}
		header = append(header, "best_speedup_vs_leime")
		tbl := metrics.NewTable(header...)
		env := cluster.TestbedEnv(dev)
		// The model × scheme grid fans out on the shared worker pool; rows
		// are assembled from the gathered grid, so the table is independent
		// of parallelism.
		tcts := make([]float64, len(profiles)*len(schemes))
		if err := parallelFor(len(tcts), func(k int) error {
			p, sc := profiles[k/len(schemes)], schemes[k%len(schemes)]
			sigma, err := calibrated(p)
			if err != nil {
				return err
			}
			tct, err := schemeTCT(sc, p, sigma, env, fig7Workload())
			if err != nil {
				return fmt.Errorf("%s on %s/%s: %w", sc.name, dev.Name, p.Name, err)
			}
			tcts[k] = tct
			return nil
		}); err != nil {
			return err
		}
		for pi, p := range profiles {
			row := []any{p.Name}
			var leimeTCT, worst float64
			for si, sc := range schemes {
				tct := tcts[pi*len(schemes)+si]
				row = append(row, tct)
				if sc.name == "LEIME" {
					leimeTCT = tct
				} else if s := tct / leimeTCT; s > worst {
					worst = s
				}
			}
			row = append(row, worst)
			tbl.AddRow(row...)
		}
		fmt.Fprint(w, tbl.String())
		fmt.Fprintln(w)
	}
	return nil
}

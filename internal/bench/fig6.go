package bench

import (
	"fmt"
	"io"

	"leime/internal/confidence"
	"leime/internal/dataset"
	"leime/internal/metrics"
	"leime/internal/model"
)

// fig6 reproduces the ME-DNN accuracy-loss study of Fig. 6: the accuracy
// loss of every (First, Second) exit combination relative to the original
// single-exit network, for all four architectures. Paper means: Inception v3
// 1.62%, ResNet-34 0.55%, SqueezeNet-1.0 0.44%, VGG-16 1.14%; ResNet-34 and
// SqueezeNet-1.0 show negative losses (accuracy gains) for many combinations
// due to the "overthinking" effect.
func fig6() Experiment {
	return Experiment{
		ID:    "fig6",
		Title: "Fig. 6: ME-DNN accuracy loss across exit combinations (paper means: 1.62/0.55/0.44/1.14%)",
		Run:   runFig6,
	}
}

// paperMeanLoss maps architecture to the accuracy loss Fig. 6 reports.
var paperMeanLoss = map[string]float64{
	"inception-v3":   0.0162,
	"resnet-34":      0.0055,
	"squeezenet-1.0": 0.0044,
	"vgg-16":         0.0114,
}

func runFig6(w io.Writer, quick bool) error {
	ds, err := dataset.Generate(dataset.CIFAR10Like, calibSize, calibSeed)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("model", "combos", "mean_loss_pct", "min_loss_pct", "max_loss_pct", "negative_combos", "paper_mean_pct")
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
	}
	for _, p := range profiles {
		conf, th, _, err := confidence.Calibrated(p, ds, calibSeed)
		if err != nil {
			return err
		}
		var sum, minL, maxL float64
		minL, maxL = 1, -1
		count, neg := 0, 0
		for e1 := 1; e1 < p.NumExits()-1; e1++ {
			for e2 := e1 + 1; e2 < p.NumExits(); e2++ {
				ev, err := conf.Evaluate(ds, e1, e2, th)
				if err != nil {
					return err
				}
				l := ev.AccuracyLoss()
				sum += l
				if l < minL {
					minL = l
				}
				if l > maxL {
					maxL = l
				}
				if l < 0 {
					neg++
				}
				count++
			}
		}
		tbl.AddRow(p.Name, count, 100*sum/float64(count), 100*minL, 100*maxL, neg,
			100*paperMeanLoss[p.Name])
	}
	fmt.Fprintln(w, "Accuracy loss of all (First, Second) exit combinations vs original DNN:")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nNegative loss = multi-exit network beats the original (overthinking avoided).")

	// Heatmap slice: the Inception v3 loss surface along the diagonal band,
	// showing that deeper exit pairs shrink the loss (the paper's (a) panel).
	p := model.InceptionV3()
	conf, th, _, err := confidence.Calibrated(p, ds, calibSeed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nME-Inception v3 loss (%) for Second-exit = First-exit + 2:")
	tbl2 := metrics.NewTable("first_exit", "second_exit", "loss_pct")
	for e1 := 1; e1+2 < p.NumExits(); e1 += 2 {
		ev, err := conf.Evaluate(ds, e1, e1+2, th)
		if err != nil {
			return err
		}
		tbl2.AddRow(e1, e1+2, 100*ev.AccuracyLoss())
	}
	fmt.Fprint(w, tbl2.String())
	return nil
}

// Package confidence simulates the early-exit behaviour of trained multi-exit
// DNNs: per-exit confidence scores, the exit rates (sigma) induced by
// per-exit confidence thresholds, and the accuracy of an exit combination.
//
// The original system derives these quantities from PyTorch models trained on
// CIFAR-10. This reproduction replaces the trained networks with a calibrated
// generative model: each sample carries a difficulty z in [0, 1]; the exit at
// depth fraction f emits confidence through a logistic curve in (f - z) with
// per-sample noise. Thresholding that confidence yields exit rates that are
// monotone in depth (deeper exits catch more samples), matching how trained
// exits behave. The accuracy model includes the "overthinking" effect
// reported by Kaya et al. and reproduced in the paper's Fig. 6: deep exits
// slightly hurt easy samples, so some exit combinations *gain* accuracy over
// the original single-exit network.
//
// Everything downstream of this package (exit setting, offloading, all
// experiments) consumes only the sigma vectors and accuracy numbers, which is
// exactly the interface a trained model would provide.
package confidence

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"leime/internal/dataset"
	"leime/internal/model"
)

// Params are the generative-model constants for one architecture. They are
// calibrated per architecture so Fig. 6's accuracy-loss ranges and signs are
// reproduced (see DefaultParams).
type Params struct {
	// Slope is the steepness of the confidence logistic in (depth - difficulty).
	Slope float64
	// Bias shifts the confidence curve; positive values make exits more
	// confident overall.
	Bias float64
	// Noise is the scale of per-sample confidence noise.
	Noise float64
	// AccSlope and AccBias shape the probability a confident exit is correct.
	AccSlope float64
	// AccBias shifts correctness probability.
	AccBias float64
	// Overthink is the strength of the deep-exit penalty on easy samples
	// (the accuracy a full-depth network loses on samples it should have
	// classified shallowly).
	Overthink float64
	// OverthinkCutoff is the difficulty below which a sample is susceptible
	// to overthinking.
	OverthinkCutoff float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Slope <= 0 {
		return fmt.Errorf("confidence: Slope %v must be positive", p.Slope)
	}
	if p.Noise < 0 {
		return fmt.Errorf("confidence: Noise %v must be non-negative", p.Noise)
	}
	if p.AccSlope <= 0 {
		return fmt.Errorf("confidence: AccSlope %v must be positive", p.AccSlope)
	}
	if p.Overthink < 0 || p.Overthink > 0.2 {
		return fmt.Errorf("confidence: Overthink %v out of range [0, 0.2]", p.Overthink)
	}
	return nil
}

// DefaultParams returns the calibrated constants for one of the four paper
// architectures. ResNet-34 and SqueezeNet-1.0 are given stronger overthinking
// (most of their exit combinations gain ~1% accuracy, per Fig. 6); Inception
// v3 and VGG-16 overthink less, so their multi-exit variants lose ~1–1.6% on
// average unless both exits sit deep.
func DefaultParams(archName string) Params {
	base := Params{
		Slope:           7.0,
		Bias:            0.4,
		Noise:           0.55,
		AccSlope:        5.5,
		AccBias:         2.6,
		Overthink:       0.02,
		OverthinkCutoff: 0.45,
	}
	switch archName {
	case "resnet-34":
		base.Overthink = 0.10
		base.OverthinkCutoff = 0.55
		base.Bias = 0.55
	case "squeezenet-1.0":
		base.Overthink = 0.11
		base.OverthinkCutoff = 0.55
		base.Bias = 0.5
	case "inception-v3":
		base.Overthink = 0.025
		base.Bias = 0.3
	case "vgg-16":
		base.Overthink = 0.035
		base.Bias = 0.35
	}
	return base
}

// DefaultLossBudget returns the per-exit calibration budget used for one of
// the paper architectures. The budgets are chosen so the resulting mean
// accuracy losses across exit combinations reproduce Fig. 6's ordering and
// magnitudes (Inception v3 1.62% > VGG-16 1.14% > ResNet-34 0.55% >
// SqueezeNet-1.0 0.44%, with negative-loss combinations appearing only for
// ResNet-34 and SqueezeNet-1.0).
func DefaultLossBudget(archName string) float64 {
	switch archName {
	case "resnet-34", "squeezenet-1.0":
		return 0.001
	case "vgg-16":
		return 0.005
	default:
		return 0.008
	}
}

// Calibrated builds a confidence model for the profile with its default
// parameters and returns it together with default-budget calibrated
// thresholds and the resulting sigma vector.
func Calibrated(p *model.Profile, ds *dataset.Dataset, seed int64) (*Model, Thresholds, []float64, error) {
	m, err := New(p, DefaultParams(p.Name), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	th, sigma := m.Calibrate(ds, DefaultLossBudget(p.Name))
	return m, th, sigma, nil
}

// Model evaluates exit behaviour of one profile on one dataset.
type Model struct {
	profile *model.Profile
	params  Params
	depths  []float64 // layer-index depth fraction of each exit, 1-based shifted
	seed    int64
}

// New builds a confidence model for the profile.
func New(p *model.Profile, params Params, seed int64) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Model{profile: p, params: params, seed: seed}
	m.depths = make([]float64, p.NumExits())
	for i := 1; i <= p.NumExits(); i++ {
		// The depth coordinate is the layer-index fraction, not the FLOPs
		// fraction: trained early exits mature with representational depth
		// (how many layers of features exist), and in real CNNs the shallow
		// layers hold a tiny share of total FLOPs, so a FLOPs coordinate
		// would make every shallow exit useless (sigma ~ 0), contradicting
		// the 20-40% first-exit rates BranchyNet-style networks achieve.
		// The 0.75 exponent models the fast maturation of early features.
		m.depths[i-1] = math.Pow(float64(i)/float64(p.NumExits()), 0.75)
	}
	return m, nil
}

// Profile returns the underlying chain profile.
func (m *Model) Profile() *model.Profile { return m.profile }

// sampleNoise returns the per-sample confidence noise, deterministic in the
// sample identity so repeated evaluations agree. It uses a splitmix64 hash
// and Box–Muller rather than math/rand so the hot path allocates nothing.
func (m *Model) sampleNoise(sampleID int) float64 {
	h := splitmix64(uint64(m.seed) ^ (uint64(sampleID)+1)*0x9e3779b97f4a7c15)
	u1 := (float64(h>>11) + 0.5) / (1 << 53)
	h = splitmix64(h)
	u2 := (float64(h>>11) + 0.5) / (1 << 53)
	return m.params.Noise * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Confidence returns the confidence score the exit at 1-based index would
// emit for the sample: a logistic in (depth - difficulty) plus per-sample
// noise. Scores are in (0, 1).
func (m *Model) Confidence(s dataset.Sample, exit int) float64 {
	return m.confidence(s, exit, m.sampleNoise(s.ID))
}

// confidence is Confidence with the sample's noise already drawn, so loops
// over exits draw it once per sample.
func (m *Model) confidence(s dataset.Sample, exit int, noise float64) float64 {
	f := m.depths[exit-1]
	margin := m.params.Slope*(f-s.Difficulty) + m.params.Bias + noise
	return logistic(margin)
}

// CorrectProb returns the probability that the exit's prediction for the
// sample is correct, including the overthinking penalty for deep exits on
// easy samples: redundant computation beyond the depth a sample needs
// degrades its prediction in proportion to the excess depth traversed and to
// how easy the sample is (Kaya et al., reproduced in the paper's Fig. 6).
func (m *Model) CorrectProb(s dataset.Sample, exit int) float64 {
	return m.correctProb(s, exit, m.sampleNoise(s.ID))
}

// correctProb is CorrectProb with the sample's noise already drawn.
func (m *Model) correctProb(s dataset.Sample, exit int, noise float64) float64 {
	f := m.depths[exit-1]
	// The same per-sample noise that raises confidence also raises
	// correctness: calibrated networks' confidence is a strong predictor of
	// being right, which is what makes threshold calibration able to admit
	// large fractions of traffic at shallow exits.
	p := logistic(m.params.AccSlope*(f-s.Difficulty) + m.params.AccBias + noise)
	const slack = 0.05 // depth margin that never counts as overthinking
	excess := f - s.Difficulty - slack
	if excess > 0 && s.Difficulty < m.params.OverthinkCutoff {
		easiness := (m.params.OverthinkCutoff - s.Difficulty) / m.params.OverthinkCutoff
		p -= m.params.Overthink * excess * easiness
	}
	return clamp01(p)
}

// Thresholds hold one confidence threshold per candidate exit. They are the
// deployable calibration artifact: calibrate once against a representative
// workload, serialize, and ship to every tier.
type Thresholds []float64

// CalibrationArtifact is the serializable result of a calibration run.
type CalibrationArtifact struct {
	// Arch names the profile the thresholds belong to.
	Arch string `json:"arch"`
	// LossBudget is the per-exit accuracy budget used.
	LossBudget float64 `json:"loss_budget"`
	// Thresholds are the per-exit confidence thresholds.
	Thresholds Thresholds `json:"thresholds"`
	// Sigma is the resulting cumulative exit-rate vector.
	Sigma []float64 `json:"sigma"`
}

// WriteArtifact serializes a calibration result.
func WriteArtifact(w io.Writer, a CalibrationArtifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("confidence: encode artifact: %w", err)
	}
	return nil
}

// ReadArtifact loads a calibration result and validates it against the
// profile it claims to calibrate.
func ReadArtifact(r io.Reader, p *model.Profile) (CalibrationArtifact, error) {
	var a CalibrationArtifact
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return a, fmt.Errorf("confidence: decode artifact: %w", err)
	}
	if a.Arch != p.Name {
		return a, fmt.Errorf("confidence: artifact for %q, profile is %q", a.Arch, p.Name)
	}
	m := p.NumExits()
	if len(a.Thresholds) != m || len(a.Sigma) != m {
		return a, fmt.Errorf("confidence: artifact has %d thresholds / %d sigma entries, profile has %d exits",
			len(a.Thresholds), len(a.Sigma), m)
	}
	prev := 0.0
	for i, v := range a.Sigma {
		if v < prev-1e-12 || v < 0 || v > 1 {
			return a, fmt.Errorf("confidence: artifact sigma not monotone in [0,1] at entry %d", i)
		}
		prev = v
	}
	if math.Abs(a.Sigma[m-1]-1) > 1e-9 {
		return a, fmt.Errorf("confidence: artifact sigma_m = %v, want 1", a.Sigma[m-1])
	}
	return a, nil
}

// UniformThresholds returns the same threshold at every exit.
func (m *Model) UniformThresholds(theta float64) Thresholds {
	t := make(Thresholds, m.profile.NumExits())
	for i := range t {
		t[i] = theta
	}
	return t
}

// Sigma returns the cumulative exit-rate vector sigma over the dataset: entry
// i-1 is the fraction of samples whose confidence meets the threshold at exit
// i or any shallower exit. The final entry is forced to 1 (every task exits
// at the original exit, sigma_exit_m = 100%). The vector is non-decreasing by
// construction.
func (m *Model) Sigma(ds *dataset.Dataset, th Thresholds) []float64 {
	mExits := m.profile.NumExits()
	sigma := make([]float64, mExits)
	n := ds.Len()
	for _, s := range ds.Samples {
		noise := m.sampleNoise(s.ID)
		exited := false
		for i := 1; i <= mExits; i++ {
			if !exited && m.confidence(s, i, noise) >= th[i-1] {
				exited = true
			}
			if exited {
				sigma[i-1]++
			}
		}
	}
	for i := range sigma {
		sigma[i] /= float64(n)
	}
	sigma[mExits-1] = 1
	// Numerical hygiene: cumulative construction guarantees monotonicity, but
	// keep an explicit pass so downstream consumers can rely on it.
	for i := 1; i < mExits; i++ {
		if sigma[i] < sigma[i-1] {
			sigma[i] = sigma[i-1]
		}
	}
	return sigma
}

// Eval is the outcome of running a dataset through one exit combination.
type Eval struct {
	// ExitFrac is the fraction of samples leaving at the First, Second and
	// Third exits (sums to 1).
	ExitFrac [3]float64
	// Accuracy is the multi-exit network's expected accuracy.
	Accuracy float64
	// BaselineAccuracy is the single-exit (original network) accuracy on the
	// same dataset.
	BaselineAccuracy float64
}

// AccuracyLoss returns baseline accuracy minus multi-exit accuracy; negative
// values mean the multi-exit network is *more* accurate (overthinking
// avoided).
func (e Eval) AccuracyLoss() float64 { return e.BaselineAccuracy - e.Accuracy }

// Evaluate runs the dataset through the exit combination {e1, e2, m}: each
// sample leaves at the first exit whose confidence clears its threshold, and
// is judged correct with the exit's correctness probability (computed in
// expectation, so results are deterministic).
func (m *Model) Evaluate(ds *dataset.Dataset, e1, e2 int, th Thresholds) (Eval, error) {
	mExits := m.profile.NumExits()
	if !(1 <= e1 && e1 < e2 && e2 < mExits) {
		return Eval{}, fmt.Errorf("confidence: invalid exit combination (%d, %d) for m=%d", e1, e2, mExits)
	}
	var out Eval
	n := float64(ds.Len())
	for _, s := range ds.Samples {
		noise := m.sampleNoise(s.ID)
		switch {
		case m.confidence(s, e1, noise) >= th[e1-1]:
			out.ExitFrac[0]++
			out.Accuracy += m.correctProb(s, e1, noise)
		case m.confidence(s, e2, noise) >= th[e2-1]:
			out.ExitFrac[1]++
			out.Accuracy += m.correctProb(s, e2, noise)
		default:
			out.ExitFrac[2]++
			out.Accuracy += m.correctProb(s, mExits, noise)
		}
		out.BaselineAccuracy += m.correctProb(s, mExits, noise)
	}
	for i := range out.ExitFrac {
		out.ExitFrac[i] /= n
	}
	out.Accuracy /= n
	out.BaselineAccuracy /= n
	return out, nil
}

// ExitReport describes one candidate exit's calibrated behaviour.
type ExitReport struct {
	// Exit is the 1-based exit index.
	Exit int
	// Threshold is the calibrated confidence threshold.
	Threshold float64
	// CumulativeRate is sigma_i: the fraction of traffic exiting here or
	// earlier.
	CumulativeRate float64
	// MarginalRate is the fraction of traffic exiting exactly here.
	MarginalRate float64
	// ConditionalAccuracy is the expected accuracy of the samples this exit
	// accepts (those confident here but at no shallower exit).
	ConditionalAccuracy float64
}

// Report evaluates every candidate exit's calibrated behaviour on the
// dataset: exit rates and the conditional accuracy of accepted traffic. It
// is the per-exit detail behind Fig. 6's aggregate losses.
func (m *Model) Report(ds *dataset.Dataset, th Thresholds) []ExitReport {
	mExits := m.profile.NumExits()
	out := make([]ExitReport, mExits)
	accSum := make([]float64, mExits)
	count := make([]float64, mExits)
	for _, s := range ds.Samples {
		noise := m.sampleNoise(s.ID)
		for i := 1; i <= mExits; i++ {
			if i == mExits || m.confidence(s, i, noise) >= th[i-1] {
				accSum[i-1] += m.correctProb(s, i, noise)
				count[i-1]++
				break
			}
		}
	}
	n := float64(ds.Len())
	cum := 0.0
	for i := range out {
		cum += count[i]
		out[i] = ExitReport{
			Exit:           i + 1,
			Threshold:      th[i],
			CumulativeRate: cum / n,
			MarginalRate:   count[i] / n,
		}
		if count[i] > 0 {
			out[i].ConditionalAccuracy = accSum[i] / count[i]
		}
	}
	return out
}

// Calibrate searches per-exit thresholds that keep each exit's conditional
// accuracy within lossBudget of the final exit while letting as many samples
// leave early as possible — the paper's "strictly set the threshold of each
// exit ... while guaranteeing inference accuracy". It returns the thresholds
// and the resulting sigma vector.
//
// Each exit's threshold is the smallest one, found by a 40-step bisection,
// whose accepted samples have expected accuracy within lossBudget of what
// the final exit scores on the full dataset. No score depends on the step,
// so each exit scores every sample once and bisects over those scores: for
// m exits and N samples that is m·N score evaluations plus 40·m·N
// comparisons.
func (m *Model) Calibrate(ds *dataset.Dataset, lossBudget float64) (Thresholds, []float64) {
	mExits := m.profile.NumExits()
	n := ds.Len()
	noise := make([]float64, n)
	var fullAcc float64
	for j, s := range ds.Samples {
		noise[j] = m.sampleNoise(s.ID)
		fullAcc += m.correctProb(s, mExits, noise[j])
	}
	fullAcc /= float64(n)
	target := fullAcc - lossBudget

	conf := make([]float64, n)
	correct := make([]float64, n)
	th := make(Thresholds, mExits)
	for i := 1; i <= mExits; i++ {
		for j, s := range ds.Samples {
			conf[j] = m.confidence(s, i, noise[j])
			correct[j] = m.correctProb(s, i, noise[j])
		}
		lo, hi := 0.0, 1.0
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			acc, count := 0.0, 0.0
			for j, c := range conf {
				if c >= mid {
					acc += correct[j]
					count++
				}
			}
			if count == 0 || acc/count >= target {
				hi = mid // accepted set accurate enough (or empty): can lower bar
			} else {
				lo = mid
			}
		}
		th[i-1] = hi
	}
	return th, m.Sigma(ds, th)
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

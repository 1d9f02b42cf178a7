// Package rb implements the randomized-benchmarking protocol (the paper's
// "rb" workload, reference [32]): run self-inverting random Clifford
// sequences of growing depth under the device noise model, measure the
// survival probability (all-zeros readout), and fit the exponential decay
// A·p^m + B to extract the error per Clifford.
//
// Every data point is a full Monte Carlo noisy simulation, so the
// protocol is a natural consumer of the trial-reordering speedup: the
// same circuit is simulated thousands of times per depth.
package rb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/trial"
)

// Sequence builds an n-qubit random Clifford sequence of the given depth
// followed by its exact inverse and terminal measurement: noiseless
// output is all zeros, so any other readout is noise.
func Sequence(n, depth int, rng *rand.Rand) *circuit.Circuit {
	if n < 1 {
		panic(fmt.Sprintf("rb: invalid qubit count %d", n))
	}
	fwd := circuit.New(fmt.Sprintf("rb_n%d_m%d", n, depth), n)
	for d := 0; d < depth; d++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(4) {
			case 0:
				fwd.Append(gate.H(), q)
			case 1:
				fwd.Append(gate.S(), q)
			case 2:
				fwd.Append(gate.Sdg(), q)
			default:
				fwd.Append(gate.Z(), q)
			}
		}
		if n > 1 {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			fwd.Append(gate.CX(), a, b)
		}
	}
	echo, err := circuit.Echo(fwd)
	if err != nil {
		panic(fmt.Sprintf("rb: echo of unmeasured circuit failed: %v", err))
	}
	echo.SetName(fwd.Name())
	echo.MeasureAll()
	return echo
}

// Point is one depth's measurement.
type Point struct {
	Depth    int
	Survival float64 // P(all-zeros readout)
	Gates    int     // gate count of the echo circuit
	OpsSaved float64 // reordering saving at this depth
}

// Fit holds the exponential decay fit A*p^m + B.
type Fit struct {
	A, P, B float64
	// ErrorPerClifford is the standard RB number r = (1 - p)(2^n - 1)/2^n.
	ErrorPerClifford float64
}

// Config drives a protocol run.
type Config struct {
	Qubits    int
	Depths    []int
	Sequences int // random sequences averaged per depth
	Trials    int // Monte Carlo trials per sequence
	Model     *noise.Model
	Seed      int64
}

// Result is a full RB run.
type Result struct {
	Points []Point
	Fit    Fit
}

// Run executes the protocol: for each depth, average the survival of
// several random sequences, each estimated with the reordered Monte Carlo
// simulator; then fit the decay.
func Run(cfg Config) (*Result, error) {
	if cfg.Qubits < 1 || len(cfg.Depths) < 2 || cfg.Sequences < 1 || cfg.Trials < 1 {
		return nil, fmt.Errorf("rb: invalid config %+v", cfg)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("rb: model required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}
	for _, m := range cfg.Depths {
		var survival, saved float64
		gates := 0
		for s := 0; s < cfg.Sequences; s++ {
			c := Sequence(cfg.Qubits, m, rng)
			gates = c.NumOps()
			gen, err := trial.NewGenerator(c, cfg.Model)
			if err != nil {
				return nil, err
			}
			trials := gen.Generate(rng, cfg.Trials)
			plan, err := reorder.BuildPlan(c, trials, reorder.Options{})
			if err != nil {
				return nil, err
			}
			r, err := sim.ExecutePlan(c, plan, sim.Options{})
			if err != nil {
				return nil, err
			}
			survival += float64(r.Counts[0]) / float64(cfg.Trials)
			saved += 1 - float64(plan.OptimizedOps())/float64(plan.BaselineOps())
		}
		res.Points = append(res.Points, Point{
			Depth:    m,
			Survival: survival / float64(cfg.Sequences),
			Gates:    gates,
			OpsSaved: saved / float64(cfg.Sequences),
		})
	}
	fit, err := FitDecay(res.Points, cfg.Qubits)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	return res, nil
}

// FitDecay fits A*p^m + B to the survival points. B is pinned to the
// depolarized floor 1/2^n (the asymptote of the all-zeros probability
// under full depolarization), then log-linear least squares on
// (survival - B) gives p and A.
func FitDecay(points []Point, nQubits int) (Fit, error) {
	if len(points) < 2 {
		return Fit{}, fmt.Errorf("rb: need >= 2 points to fit, got %d", len(points))
	}
	b := 1 / math.Exp2(float64(nQubits))
	var sx, sy, sxx, sxy float64
	n := 0
	for _, pt := range points {
		y := pt.Survival - b
		if y <= 1e-9 {
			continue // at or below the floor; no information about p
		}
		x := float64(pt.Depth)
		ly := math.Log(y)
		sx += x
		sy += ly
		sxx += x * x
		sxy += x * ly
		n++
	}
	if n < 2 {
		return Fit{}, fmt.Errorf("rb: decay already at the depolarized floor; reduce depths")
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return Fit{}, fmt.Errorf("rb: degenerate depths")
	}
	slope := (float64(n)*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / float64(n)
	p := math.Exp(slope)
	if p > 1 {
		p = 1
	}
	dim := math.Exp2(float64(nQubits))
	return Fit{
		A:                math.Exp(intercept),
		P:                p,
		B:                b,
		ErrorPerClifford: (1 - p) * (dim - 1) / dim,
	}, nil
}

// Package harness drives the paper's experiments end to end and renders
// their tables and figures as text and CSV: Table I (benchmark
// characteristics), Figure 4 (Yorktown error rates), Figures 5-6 (realistic
// error-model experiments on the 12 benchmarks) and Figures 7-8 (the
// artificial-model scalability sweep).
//
// Every experiment is a pure function of its config (seeded RNG), so
// `cmd/repro` regenerates the same numbers run after run.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/transpile"
	"repro/internal/trial"
)

// Table is a rendered experiment result: a title, column headers, and
// string rows, renderable as aligned text or CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; it must match the header width.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("harness: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (header first). Cells are simple
// identifiers and numbers, so no quoting is needed.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "%s\n", strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Config tunes the experiment suite. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Seed drives every random choice (QV circuits, trial sampling).
	Seed int64
	// Fig5Trials are the trial counts of Figure 5's series.
	Fig5Trials []int
	// Fig6Trials is the trial count of the Figure 6 MSV measurement.
	Fig6Trials int
	// ScalabilityTrials is the per-configuration trial count of Figures
	// 7-8. The paper uses 1e6; DefaultConfig uses a quicker setting and
	// cmd/repro -full restores the paper's.
	ScalabilityTrials int
	// BatchVariants is the variant count of the batch experiment's
	// PEC-shaped workload (one shared trie across all variants).
	BatchVariants int
	// BatchTrials is the Monte Carlo trial count per variant in the
	// batch experiment.
	BatchTrials int
	// BatchMeanIns is the expected number of Pauli insertions per
	// sampled variant (circuit.SampleVariants).
	BatchMeanIns float64
	// Metrics, when non-nil, collects per-scenario metrics (phase timings
	// and static plan analyses) as the experiments run; cmd/repro's
	// -metrics flag serializes the suite into the run-metrics JSON.
	Metrics *obs.Suite
}

// scenario returns the recorder and entry for one experiment scenario, or
// (nil, nil) when metrics collection is off.
func (cfg Config) scenario(experiment, name string) (*obs.SuiteEntry, obs.Recorder) {
	if cfg.Metrics == nil {
		return nil, nil
	}
	e := cfg.Metrics.Scenario(experiment, name)
	return e, e.Metrics
}

// analyze counts the plan of the trials under opt: its static metrics,
// without steps.
func analyze(c *circuit.Circuit, trials []*trial.Trial, opt reorder.Options) (reorder.Analysis, error) {
	opt.Count = true
	p, err := reorder.BuildPlan(c, trials, opt)
	if err != nil {
		return reorder.Analysis{}, err
	}
	return p.Analysis(), nil
}

// planStatics converts a static analysis into the metrics-JSON form.
func planStatics(a reorder.Analysis) *obs.PlanStatics {
	return &obs.PlanStatics{
		BaselineOps:  a.BaselineOps,
		OptimizedOps: a.OptimizedOps,
		Normalized:   a.Normalized,
		MSV:          a.MSV,
		Copies:       a.Copies,
	}
}

// DefaultConfig returns the quick-run configuration: Figure 5/6 exactly as
// the paper (the 5-qubit experiments are cheap) and a reduced scalability
// trial count suitable for CI. Use PaperConfig for the full-scale runs.
func DefaultConfig() Config {
	return Config{
		Seed:              20200720, // DAC 2020 presentation date
		Fig5Trials:        []int{1024, 2048, 4096, 8192},
		Fig6Trials:        1024,
		ScalabilityTrials: 20000,
		BatchVariants:     128,
		BatchTrials:       8,
		BatchMeanIns:      0.8,
	}
}

// PaperConfig returns the full-scale configuration of the paper: 10^6
// trials per scalability configuration.
func PaperConfig() Config {
	c := DefaultConfig()
	c.ScalabilityTrials = 1_000_000
	return c
}

// mappedSuite builds the Table I benchmarks and maps them onto Yorktown.
func mappedSuite(seed int64) (map[string]*circuit.Circuit, error) {
	d := device.Yorktown()
	out := make(map[string]*circuit.Circuit)
	for name, c := range bench.Suite(seed) {
		res, err := transpile.ToDevice(c, d)
		if err != nil {
			return nil, fmt.Errorf("harness: mapping %s: %v", name, err)
		}
		out[name] = res.Circuit
	}
	return out, nil
}

// TableI reproduces the paper's Table I: per-benchmark qubit and gate
// counts after mapping to the Yorktown device, side by side with the
// paper's published (Enfield-compiled) numbers.
func TableI(cfg Config) (*Table, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Table I: benchmark characteristics (ours = after internal/transpile; paper = after Enfield)",
		Header: []string{"name", "qubits", "single(ours)", "single(paper)",
			"cnot(ours)", "cnot(paper)", "measure"},
	}
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		s, d, _ := c.CountGates()
		t.AddRow(ref.Name,
			fmt.Sprintf("%d", ref.Qubits),
			fmt.Sprintf("%d", s), fmt.Sprintf("%d", ref.Single),
			fmt.Sprintf("%d", d), fmt.Sprintf("%d", ref.CNOT),
			fmt.Sprintf("%d", len(c.Measurements())))
	}
	return t, nil
}

// Fig4 renders the Yorktown calibration the simulator uses (the paper's
// Figure 4).
func Fig4() *Table {
	m := device.Yorktown().Model()
	t := &Table{
		Title:  "Figure 4: error rates on the IBM Yorktown chip",
		Header: []string{"qubit", "single-qubit gate error", "measurement error"},
	}
	for q := 0; q < m.NumQubits(); q++ {
		t.AddRow(fmt.Sprintf("Q%d", q),
			fmt.Sprintf("%.2e", m.Single(q)),
			fmt.Sprintf("%.2e", m.Measure(q)))
	}
	for _, e := range device.Yorktown().Edges() {
		t.AddRow(fmt.Sprintf("Q%d-Q%d", e[0], e[1]),
			fmt.Sprintf("two-qubit: %.2e", m.Two(e[0], e[1])), "")
	}
	return t
}

// Fig5Result holds one Figure 5 cell.
type Fig5Result struct {
	Benchmark  string
	Trials     int
	Normalized float64
	MSV        int
}

// Fig5Data runs the realistic-model experiment for every benchmark and
// trial count, returning raw results for tables, figures and tests.
func Fig5Data(cfg Config) ([]Fig5Result, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	var out []Fig5Result
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %v", ref.Name, err)
		}
		for _, n := range cfg.Fig5Trials {
			entry, rec := cfg.scenario("fig5", fmt.Sprintf("%s/%d", ref.Name, n))
			rng := rand.New(rand.NewSource(Fig5Seed(cfg, n)))
			genDone := obs.StartPhase(rec, obs.PhaseTrialGen)
			trials := gen.Generate(rng, n)
			genDone()
			planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
			a, err := analyze(c, trials, reorder.Options{})
			planDone()
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%d: %v", ref.Name, n, err)
			}
			if entry != nil {
				entry.Plan = planStatics(a)
			}
			out = append(out, Fig5Result{
				Benchmark:  ref.Name,
				Trials:     n,
				Normalized: a.Normalized,
				MSV:        a.MSV,
			})
		}
	}
	return out, nil
}

// Fig5 renders Figure 5: normalized computation per benchmark per trial
// count, with the paper's reported average band for comparison.
func Fig5(cfg Config) (*Table, error) {
	data, err := Fig5Data(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5: normalized computation, realistic (Yorktown) error model (paper: avg 0.15-0.25, falling with trials)",
		Header: append([]string{"benchmark"}, trialHeaders(cfg.Fig5Trials)...),
	}
	byBench := map[string]map[int]float64{}
	for _, r := range data {
		if byBench[r.Benchmark] == nil {
			byBench[r.Benchmark] = map[int]float64{}
		}
		byBench[r.Benchmark][r.Trials] = r.Normalized
	}
	sums := make(map[int]float64)
	for _, ref := range bench.TableI {
		row := []string{ref.Name}
		for _, n := range cfg.Fig5Trials {
			v := byBench[ref.Name][n]
			sums[n] += v
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, n := range cfg.Fig5Trials {
		avg = append(avg, fmt.Sprintf("%.3f", sums[n]/float64(len(bench.TableI))))
	}
	t.AddRow(avg...)
	return t, nil
}

func trialHeaders(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%d trials", n)
	}
	return out
}

// Fig6 renders Figure 6: Maintained State Vectors per benchmark at the
// configured trial count.
func Fig6(cfg Config) (*Table, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	t := &Table{
		Title:  fmt.Sprintf("Figure 6: memory consumption (MSVs) at %d trials (paper: 3-6)", cfg.Fig6Trials),
		Header: []string{"benchmark", "MSV"},
	}
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, err
		}
		entry, rec := cfg.scenario("fig6", ref.Name)
		rng := rand.New(rand.NewSource(Fig6Seed(cfg)))
		genDone := obs.StartPhase(rec, obs.PhaseTrialGen)
		trials := gen.Generate(rng, cfg.Fig6Trials)
		genDone()
		planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
		a, err := analyze(c, trials, reorder.Options{})
		planDone()
		if err != nil {
			return nil, err
		}
		if entry != nil {
			entry.Plan = planStatics(a)
		}
		t.AddRow(ref.Name, fmt.Sprintf("%d", a.MSV))
	}
	return t, nil
}

// ScalabilityConfigs lists the Figure 7/8 circuit shapes in paper order.
var ScalabilityConfigs = []struct{ N, D int }{
	{10, 5}, {10, 10}, {10, 15}, {10, 20}, {20, 20}, {30, 20}, {40, 20},
}

// ScalabilityRates lists the Figure 7/8 single-qubit error rates in paper
// order (two-qubit and measurement rates are always 10x).
var ScalabilityRates = []float64{1e-3, 5e-4, 2e-4, 1e-4}

// ScalResult holds one Figure 7/8 cell.
type ScalResult struct {
	N, D       int
	Rate1Q     float64
	Normalized float64
	MSV        int
	MeanErrors float64
}

// ScalabilityData runs the artificial-model sweep: Quantum Volume circuits
// of growing width and depth under four uniform error-rate settings, all
// via the count-only plan walk (no state vectors are allocated, so
// the 40-qubit configurations are exact, not scaled down).
func ScalabilityData(cfg Config) ([]ScalResult, error) {
	var out []ScalResult
	for si, sc := range ScalabilityConfigs {
		// One circuit per shape, shared across rates (as in the paper,
		// where the circuit is fixed and the device model varies).
		crng := rand.New(rand.NewSource(cfg.Seed ^ int64(sc.N*1000+sc.D)))
		c := bench.QV(sc.N, sc.D, crng)
		for ri, p1 := range ScalabilityRates {
			m := noise.Uniform(fmt.Sprintf("artificial-%g", p1), sc.N, p1, 10*p1, 10*p1)
			gen, err := trial.NewGenerator(c, m)
			if err != nil {
				return nil, fmt.Errorf("harness: qv n%d d%d: %v", sc.N, sc.D, err)
			}
			entry, rec := cfg.scenario("scalability", fmt.Sprintf("n%d_d%d/p%g", sc.N, sc.D, p1))
			// The seed mixes the integer scenario indices: the old
			// float-derived offset (N*1e6*p1) collided whenever N*p1 tied
			// across cells.
			rng := rand.New(rand.NewSource(ScalabilitySeed(cfg, si, ri)))
			genDone := obs.StartPhase(rec, obs.PhaseTrialGen)
			trials := gen.Generate(rng, cfg.ScalabilityTrials)
			genDone()
			planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
			a, err := analyze(c, trials, reorder.Options{})
			planDone()
			if err != nil {
				return nil, err
			}
			if entry != nil {
				entry.Plan = planStatics(a)
			}
			st := trial.Summarize(trials)
			out = append(out, ScalResult{
				N: sc.N, D: sc.D, Rate1Q: p1,
				Normalized: a.Normalized, MSV: a.MSV, MeanErrors: st.MeanErrors,
			})
		}
	}
	return out, nil
}

// Fig7 renders Figure 7: normalized computation across the scalability
// sweep.
func Fig7(cfg Config) (*Table, error) {
	data, err := ScalabilityData(cfg)
	if err != nil {
		return nil, err
	}
	return scalTable(cfg, data,
		"Figure 7: normalized computation, scalability sweep (paper: avg saving ~79%, worst case ~31% at n40,d20,1e-3)",
		func(r ScalResult) string { return fmt.Sprintf("%.3f", r.Normalized) }), nil
}

// Fig8 renders Figure 8: MSVs across the scalability sweep.
func Fig8(cfg Config) (*Table, error) {
	data, err := ScalabilityData(cfg)
	if err != nil {
		return nil, err
	}
	return scalTable(cfg, data,
		"Figure 8: memory consumption (MSVs), scalability sweep (paper: ~6 on average, falling as qubits grow)",
		func(r ScalResult) string { return fmt.Sprintf("%d", r.MSV) }), nil
}

func scalTable(cfg Config, data []ScalResult, title string, cell func(ScalResult) string) *Table {
	t := &Table{Title: title, Header: []string{"circuit"}}
	for _, p1 := range ScalabilityRates {
		t.Header = append(t.Header, fmt.Sprintf("1q=%g/2q=%g", p1, 10*p1))
	}
	byShape := map[[2]int]map[float64]ScalResult{}
	for _, r := range data {
		k := [2]int{r.N, r.D}
		if byShape[k] == nil {
			byShape[k] = map[float64]ScalResult{}
		}
		byShape[k][r.Rate1Q] = r
	}
	for _, sc := range ScalabilityConfigs {
		row := []string{fmt.Sprintf("n%d,d%d", sc.N, sc.D)}
		for _, p1 := range ScalabilityRates {
			row = append(row, cell(byShape[[2]int{sc.N, sc.D}][p1]))
		}
		t.AddRow(row...)
	}
	return t
}

// Experiments maps experiment names to their runners, for cmd/repro.
func Experiments(cfg Config) map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"table1":    func() (*Table, error) { return TableI(cfg) },
		"fig4":      func() (*Table, error) { return Fig4(), nil },
		"fig5":      func() (*Table, error) { return Fig5(cfg) },
		"fig6":      func() (*Table, error) { return Fig6(cfg) },
		"fig7":      func() (*Table, error) { return Fig7(cfg) },
		"fig8":      func() (*Table, error) { return Fig8(cfg) },
		"ablation":  func() (*Table, error) { return Ablation(cfg) },
		"parallel":  func() (*Table, error) { return ParallelSharing(cfg) },
		"latency":   func() (*Table, error) { return Latency(cfg) },
		"batch":     func() (*Table, error) { return Batch(cfg) },
		"uncompute": func() (*Table, error) { return Uncompute(cfg) },
		"service":   func() (*Table, error) { return Service(cfg) },
	}
}

// ExperimentOrder lists experiment names in report order.
var ExperimentOrder = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation", "parallel", "latency", "batch", "uncompute", "service"}

// AblationDepths lists the shared-prefix caps the ablation experiment
// sweeps (1<<30 = unbounded, the paper's full Algorithm 1).
var AblationDepths = []int{0, 1, 2, 3, 1 << 30}

// Ablation quantifies what each recursion level of Algorithm 1
// contributes: for every Table I benchmark, the normalized computation
// under shared-prefix caps 0 (baseline), 1 (first error only), 2, 3 and
// unbounded. This experiment extends the paper (its evaluation only runs
// the full recursion); the trend justifies Algorithm 1's recursive step.
func Ablation(cfg Config) (*Table, error) {
	suite, err := mappedSuite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	model := device.Yorktown().Model()
	t := &Table{
		Title:  fmt.Sprintf("Ablation: normalized computation vs shared-prefix depth cap (%d trials)", cfg.Fig6Trials),
		Header: []string{"benchmark", "cap=0", "cap=1", "cap=2", "cap=3", "full"},
	}
	for _, ref := range bench.TableI {
		c := suite[ref.Name]
		gen, err := trial.NewGenerator(c, model)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(AblationSeed(cfg)))
		trials := gen.Generate(rng, cfg.Fig6Trials)
		row := []string{ref.Name}
		for _, cap := range AblationDepths {
			entry, rec := cfg.scenario("ablation", fmt.Sprintf("%s/cap%d", ref.Name, cap))
			planDone := obs.StartPhase(rec, obs.PhasePlanBuild)
			opt := reorder.Options{MaxShared: cap}
			if cap == 0 {
				opt.MaxShared = reorder.NoSharing
			}
			a, err := analyze(c, trials, opt)
			planDone()
			if err != nil {
				return nil, err
			}
			if entry != nil {
				entry.Plan = planStatics(a)
			}
			row = append(row, fmt.Sprintf("%.3f", a.Normalized))
		}
		t.AddRow(row...)
	}
	return t, nil
}

package reorder

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/transpile"
	"repro/internal/trial"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current builder")

const goldenPlansFile = "testdata/plans.golden"

// Golden job shapes: the Table I circuits transpiled onto Yorktown with its
// per-gate errors, as the paper-yorktown benchmark runs them.
const (
	goldenTrials = 1024
	goldenSeeds  = 20
)

var goldenBudgets = []int{0, 1, 2, math.MaxInt}

func budgetLabel(b int) string {
	if b == math.MaxInt {
		return "inf"
	}
	return fmt.Sprint(b)
}

// goldenJob is one Table I circuit on Yorktown with one seed's trials.
type goldenJob struct {
	name   string
	seed   int64
	c      *circuit.Circuit
	trials []*trial.Trial
}

// goldenJobs builds every (Table I circuit, seed) pair of the golden set.
func goldenJobs(t testing.TB) []goldenJob {
	t.Helper()
	dev := device.Yorktown()
	suite := bench.Suite(1)
	var jobs []goldenJob
	for _, ref := range bench.TableI {
		tr, err := transpile.ToDevice(suite[ref.Name], dev)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trial.NewGenerator(tr.Circuit, dev.Model())
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			jobs = append(jobs, goldenJob{
				name: ref.Name, seed: seed, c: tr.Circuit,
				trials: gen.Generate(rand.New(rand.NewSource(seed)), goldenTrials),
			})
		}
	}
	return jobs
}

// digester hashes integers into a running FNV-64a digest.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) ints(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		for i := range buf {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d *digester) order(order []*trial.Trial) {
	d.ints(int64(len(order)))
	for _, t := range order {
		d.ints(int64(t.ID))
	}
}

func (d *digester) steps(steps []Step) {
	d.ints(int64(len(steps)))
	for _, s := range steps {
		// A Spawn keeps its task index in From; the digest reads the same
		// logical fields as when Task had a field of its own.
		from, task := int64(s.From), int64(0)
		if s.Kind == StepSpawn {
			from, task = 0, int64(s.Task())
		}
		d.ints(from, int64(s.To), int64(s.Qubit), task, int64(s.Kind), int64(s.Op))
	}
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// planDigest covers a plan's order, every step field and its static
// metrics.
func planDigest(p *Plan) string {
	d := newDigester()
	d.order(p.Order)
	d.steps(p.Steps)
	d.ints(p.OptimizedOps(), int64(p.MSV()), p.Copies())
	return d.sum()
}

// splitDigest covers a split plan's order, trunk, and every subtree's
// entry, steps and metrics.
func splitDigest(sp *SplitPlan) string {
	d := newDigester()
	d.order(sp.Order)
	d.steps(sp.Trunk)
	d.ints(sp.TrunkOps(), int64(sp.TrunkMSV()), int64(len(sp.Subtrees)))
	for _, st := range sp.Subtrees {
		d.ints(int64(st.ID), int64(st.EntryLayer), int64(st.EntryDepth), int64(st.Trials))
		d.steps(st.Steps)
		d.ints(st.Ops, int64(st.MSV))
	}
	return d.sum()
}

// goldenLines renders one line per plan and per split plan of the golden
// set: the sequential plan at every golden budget, and the split plan at
// cuts 1-3 under the same budgets.
func goldenLines(t testing.TB) []string {
	t.Helper()
	var lines []string
	for _, job := range goldenJobs(t) {
		ordered := Sort(job.trials)
		for _, budget := range goldenBudgets {
			p, err := BuildPlanOrderedBudget(job.c, ordered, budget)
			if err != nil {
				t.Fatalf("%s seed %d budget %s: %v", job.name, job.seed, budgetLabel(budget), err)
			}
			lines = append(lines, fmt.Sprintf("plan %s seed=%d budget=%s %s", job.name, job.seed, budgetLabel(budget), planDigest(p)))
			for cut := 1; cut <= 3; cut++ {
				sp, err := SplitPlanOrderedCut(job.c, ordered, cut, budget)
				if err != nil {
					t.Fatalf("%s seed %d budget %s cut %d: %v", job.name, job.seed, budgetLabel(budget), cut, err)
				}
				lines = append(lines, fmt.Sprintf("split %s seed=%d budget=%s cut=%d %s", job.name, job.seed, budgetLabel(budget), cut, splitDigest(sp)))
			}
		}
	}
	return lines
}

// TestPlansMatchGolden pins every plan and split plan of the golden set
// to the digests recorded in testdata/plans.golden: the order, every step
// and the static metrics must be reproduced exactly. Run with -update to
// rewrite the file when a change to the plans is intended.
func TestPlansMatchGolden(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPlansFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlansFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPlansFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden plans, file has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d plans differ from %s", bad, len(want), goldenPlansFile)
	}
}

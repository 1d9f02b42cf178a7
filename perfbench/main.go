// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points — core.Run for batch
// jobs, service.Server over loopback HTTP for the daemon — checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	bash perfbench/run.sh --workload paper-yorktown --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the traced replica instead and prints the per-layer ledger; with
// --perfetto FILE it also writes one traced job as Perfetto JSON.
//
// Lines starting with "#" describe the host, the settings and the sample
// counts, so records from different hosts are never compared silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// checker counts jobs attempted and failed and keeps the first mismatches.
// A job fails when it is rejected, errors, or returns a wrong output.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// job records one attempted job and its error, if any.
func (c *checker) job(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run measures the end-to-end metrics with tracing off.
	run func(o options, ck *checker, rep *report) error
	// traced runs the traced replica and measures the per-layer ledger.
	traced func(o options, ck *checker, rep *report) error
}

// options are the command-line settings of one run.
type options struct {
	seed     int64
	window   time.Duration
	perfetto string
}

var workloads = []workload{
	{"paper-yorktown", paperYorktown.run, paperYorktown.traced},
	{"qv14-snapshot", qv14Snapshot.run, qv14Snapshot.traced},
	{"qv14-uncompute", qv14Uncompute.run, qv14Uncompute.traced},
	{"qsimd-mixed", runDaemon, traceDaemon},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced run")
	perfetto := flag.String("perfetto", "", "with --trace 1, write one traced job as Perfetto JSON to this file")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fmt.Printf("# env %s\n", fingerprint())
	fmt.Printf("# run workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *traceFlag)

	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), perfetto: *perfetto}
	ck := &checker{}
	rep := &report{Metrics: map[string]metric{}}
	var err error
	if *traceFlag == 1 {
		err = wl.traced(o, ck, rep)
	} else {
		err = wl.run(o, ck, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	for _, e := range ck.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	rep.Correct = ck.failed == 0
	rep.Attempted = ck.attempted
	rep.Failed = ck.failed
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

package harness

// Seed derivation for the experiment suite. Every experiment draws its
// trial RNG seed through seedFor, which mixes the config's base seed with
// a per-experiment salt and the scenario's integer coordinates through a
// splitmix64 finalizer. Two properties the old ad-hoc schemes lacked:
//
//   - Distinct experiments get distinct trial streams. Figure 6, the
//     ablation and the parallel-sharing experiment all used
//     cfg.Seed + Fig6Trials verbatim, and Figure 5 reused
//     cfg.Seed + trials, so a Figure 5 series at 1024 trials shared its
//     stream with Figure 6.
//   - Distinct scenarios within an experiment get distinct streams. The
//     scalability sweep derived its offset from float64(N)*1e6*p1, which
//     collides whenever N*p1 ties — (N=10, p1=1e-3) and (N=20, p1=5e-4)
//     both gave +10000 — so it now mixes the integer (shape, rate) indices
//     instead.
//
// Changing any salt changes the generated trial sets and therefore the
// sampled experiment numbers; the per-trial correctness guarantees are
// seed-independent. EXPERIMENTS.md records the scheme.

// Per-experiment salts. Arbitrary odd 64-bit constants; all that matters
// is that they differ.
const (
	saltFig5        = 0x5f1d_9a3c_7b21_e645
	saltFig6        = 0xa6c3_04f1_9d8e_2b17
	saltScalability = 0x3d90_57e8_c4a1_6f2b
	saltAblation    = 0x81fe_b32a_5c47_d909
	saltParallel    = 0xc752_18d6_3e9f_a471
	saltLatency     = 0x2e8b_f693_1a5d_c037
	saltBatch       = 0x9b14_ce72_06ad_5f83
	saltUncompute   = 0x4fa7_61c9_8e30_b2d5
	saltService     = 0x7c39_e0b5_42f8_1da3
)

// experimentSalts names every per-experiment salt for the pairwise
// distinctness regression (seed_test.go). Adding an experiment salt
// without registering it here fails the test that audits this list
// against the experiment registry.
var experimentSalts = map[string]uint64{
	"fig5":        saltFig5,
	"fig6":        saltFig6,
	"scalability": saltScalability,
	"ablation":    saltAblation,
	"parallel":    saltParallel,
	"latency":     saltLatency,
	"batch":       saltBatch,
	"uncompute":   saltUncompute,
	"service":     saltService,
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so that
// consecutive or otherwise structured inputs map to well-separated seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seedFor derives the trial-RNG seed for one experiment scenario from the
// base seed, the experiment's salt, and the scenario's integer
// coordinates.
func seedFor(base int64, salt uint64, keys ...int) int64 {
	h := mix64(uint64(base) ^ salt)
	for _, k := range keys {
		h = mix64(h ^ uint64(int64(k)))
	}
	return int64(h)
}

// Fig5Seed returns the trial seed for one Figure 5 series (keyed by trial
// count; every benchmark in the series shares the stream, as before).
func Fig5Seed(cfg Config, trials int) int64 {
	return seedFor(cfg.Seed, saltFig5, trials)
}

// Fig6Seed returns the trial seed of the Figure 6 MSV measurement.
func Fig6Seed(cfg Config) int64 {
	return seedFor(cfg.Seed, saltFig6, cfg.Fig6Trials)
}

// ScalabilitySeed returns the trial seed for one scalability-sweep cell,
// keyed by the indices into ScalabilityConfigs and ScalabilityRates.
func ScalabilitySeed(cfg Config, shapeIdx, rateIdx int) int64 {
	return seedFor(cfg.Seed, saltScalability, shapeIdx, rateIdx)
}

// AblationSeed returns the trial seed of the ablation experiment.
func AblationSeed(cfg Config) int64 {
	return seedFor(cfg.Seed, saltAblation, cfg.Fig6Trials)
}

// ParallelSeed returns the trial seed of the parallel-sharing experiment.
func ParallelSeed(cfg Config) int64 {
	return seedFor(cfg.Seed, saltParallel, cfg.Fig6Trials)
}

// LatencySeed returns the trial seed of the latency-distribution
// experiment.
func LatencySeed(cfg Config) int64 {
	return seedFor(cfg.Seed, saltLatency, cfg.Fig6Trials)
}

// UncomputeSeed returns the trial seed of the restore-policy experiment,
// keyed by the workload shape so changing the QV circuit draws a fresh
// stream.
func UncomputeSeed(cfg Config, qubits, depth int) int64 {
	return seedFor(cfg.Seed, saltUncompute, qubits, depth)
}

// ServiceSeed returns the job seed of the service experiment, keyed by
// the job's index in the submission sweep so every distinct job draws a
// fresh trial stream (identical-circuit sharing jobs reuse index 0).
func ServiceSeed(cfg Config, job int) int64 {
	return seedFor(cfg.Seed, saltService, job)
}

// BatchSeed returns an RNG seed for the batch experiment, keyed by the
// benchmark index and a sub-stream index: -1 draws the variant batch
// itself, 0..variants-1 draw each variant's Monte Carlo trials. Distinct
// sub-streams keep a variant's trial set independent of every other
// variant's and of the batch's insertion pattern.
func BatchSeed(cfg Config, bench, stream int) int64 {
	return seedFor(cfg.Seed, saltBatch, bench, stream)
}

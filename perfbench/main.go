// Command perfbench is the repository's benchmark: it builds the paper's
// study from a generated archive, publishes it to a replica serving it
// over a loopback socket, and drives that replica with a seeded open-loop
// request stream, checking every answer against the corpus generator's
// ground truth.
//
//	perfbench -workload study-cold -seed 1 -seconds 16 -trace 0
//
// Every run has the same shape. Set-up (repeated, its median reported as
// setup_s) writes the corpus to disk and starts the replica. A discarded
// warm-up then fills the intern table, the page cache, the first hotset
// and, for study-warm, the analysis cache. The timed phase has two
// parts: publish cycles (corpus directory → study → snapshot bytes →
// replica study → Swap → first 200), then serving at a fixed rate; a
// traced run then searches a fixed ladder of rates, each stage starting
// from a snapshot the publisher pushes. The workloads differ in how the
// publisher builds: with no analysis cache, or through the one the
// warm-up filled. See METRICS.md for the metrics and what each layer
// should move.
//
// With -trace 1 the run records spans around every call into the
// layers and prints per-layer metrics instead of end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/corpus"
)

// workload is one named input to the whole publish-and-serve path.
type workload struct {
	// cold: every publish cycle builds with no analysis cache. Otherwise
	// every cycle builds through a fresh handle on a cache the warm-up
	// filled from the same corpus, so every binary hits.
	cold bool
}

// The timed phase gives 15% of -seconds to publish cycles (at least
// minCycles of them) and 40% to the fixed-rate stage, enough requests
// for a steady median and a p99 with ten samples beyond it; in a traced
// run the ladder search then takes four to six stages.
const (
	buildShare = 0.15
	fixedShare = 0.40
	minCycles  = 2
)

var workloads = map[string]workload{
	"study-cold": {cold: true},
	"study-warm": {},
}

// Serving constants, recorded with their reasons in METRICS.md.
const (
	// fixedRPS is the arrival rate p50_ms (and the traced run's
	// httpapi.p99_ms) is measured at.
	fixedRPS = 200
	// sloP99Ms is the latency limit httpapi.max_rps_under_slo holds at
	// p99, the same limit BENCH_serving.json's ramp gate uses.
	sloP99Ms = 500
	// ladderStage is the length of one ladder stage; a longer stage lets
	// a verdict near capacity rest less on a few costly requests.
	ladderStage = 4 * time.Second
)

// ladder is the fixed sequence of arrival rates
// httpapi.max_rps_under_slo is searched on: 500 rps rising by 7% a step to about 3,000 rps. The
// capacity it finds moves with the machine's speed; steps finer than
// that movement keep the rung quantisation from adding to it.
var ladder = func() []float64 {
	var out []float64
	for r := 500.0; r < 3200; r *= 1.07 {
		out = append(out, math.Round(r))
	}
	return out
}()

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	packages int
	workdir  string
	// wrap, if set, wraps the replica's HTTP handler; the self-tests use
	// it to corrupt answers and check that the oracle notices.
	wrap func(http.Handler) http.Handler
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "study-cold or study-warm")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the corpus and request stream derive from")
	flag.IntVar(&cfg.seconds, "seconds", 16, "seconds the timed phase gives to publish cycles and the fixed-rate stage")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.packages = corpus.DefaultConfig().Packages
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res, cfg)
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metric is one reported number with its unit; info describes where it
// came from (for a timing: median, tail percentile and sample count).
type metric struct {
	name  string
	value float64
	unit  string
	info  string
}

type result struct {
	attempted, failed int
	errors            []string
	metrics           []metric
}

func printResult(r *result, cfg config) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s metrics)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.info != "" {
			line += "  " + m.info
		}
		fmt.Println(line)
	}
	ratio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("  %-34s %14.6g %-6s  failed=%d attempted=%d\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	for _, e := range r.errors {
		fmt.Println("  failed:", e)
	}
	out := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
	}
	ms := map[string]any{}
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload end to end and returns its metrics.
func execute(cfg config) (*result, error) {
	root := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	// The run writes tens of thousands of files. Deleting them frees
	// blocks that a file system mounted with discard trims at its next
	// commit, which stalls metadata operations for seconds; syncing after
	// the deletion waits for that here instead of in the next run's
	// set-up.
	syscall.Sync()
	defer func() {
		os.RemoveAll(root)
		syscall.Sync()
	}()

	// Set-up, twice: setup_s is the median, and the second is kept. Its
	// time is mostly the corpus's disk writes, whose speed drifts over
	// minutes, so a third set-up per run did not make setup_s steadier
	// across runs and cost the run 5-10 s.
	var setupS samples
	var e *env
	const setups = 2
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		e, err = setup(cfg, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	phase := time.Now()
	logPhase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.1fs\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %v s\n", setupS)
	if err := e.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	logPhase("warm-up")
	if cfg.trace {
		e.tr = newTracer()
	}
	m, err := e.timed(cfg)
	if err != nil {
		return nil, err
	}
	logPhase("timed phase")
	res := &result{attempted: e.attempted, failed: e.failed, errors: e.failureReport()}
	if cfg.trace {
		res.metrics = e.layerMetrics(m)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.tsv", cfg.workload, cfg.seed))
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
	} else {
		res.metrics = endToEnd(setupS, m)
	}
	return res, nil
}

// endToEnd assembles the end-to-end metrics in BENCHMARK.json order.
// The fixed-rate stage's p99 and the ladder's highest rate are not among
// them: across runs of the same code they spread wider than any bound
// the benchmark may set (see METRICS.md), so the traced run reports them
// as httpapi.p99_ms and httpapi.max_rps_under_slo instead.
func endToEnd(setupS samples, m *measured) []metric {
	timing := func(name string, s samples, unit string) metric {
		return metric{name: name, value: s.median(), unit: unit, info: s.describe(unit)}
	}
	return []metric{
		timing("setup_s", setupS, "s"),
		timing("study_build_s", m.buildS, "s"),
		timing("publish_to_serve_s", m.publishS, "s"),
		{name: "live_heap_mb", value: m.liveHeapMB, unit: "MiB", info: "after a forced GC at the end of the timed phase"},
		timing("p50_ms", m.fixed.lat, "ms"),
	}
}

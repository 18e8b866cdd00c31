package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// env is one set-up: the corpus on disk, the ground truth, the replica
// and the request stream, plus the outcome counters every check feeds.
type env struct {
	cfg config
	dir string
	tr  *tracer // nil outside the traced part of a traced run

	rep      *replica
	truth    *truth
	cacheDir string // warm: the analysis cache the warm-up fills
	// served holds every generation the replica was given, so an answer
	// from any other generation counts as wrong.
	served   map[uint64]bool
	snapData *snapshot.Data // publisher-side snapshot of the last publish
	pushes   int
	elfPkg   string // package the upload sample comes from
	profile  *loadgen.Profile
	stream   *stream
	answers  *answers
	cycles   int64
	counts   layerCounts

	attempted, failed int
	failures          map[string]*failure // by kind
}

// failure counts one kind of failed operation and keeps an example.
type failure struct {
	count   int
	example string
}

// firstPushGen numbers pushed snapshots above any generation Swap can
// reach in one run, so the replica accepts each as newer.
const firstPushGen = 1_000_000

// setup generates the corpus, writes it to disk, derives its ground
// truth and request profile, and starts a replica serving an empty
// study.
func setup(cfg config, dir string) (*env, error) {
	e := &env{
		cfg: cfg, dir: dir,
		served:   map[uint64]bool{},
		answers:  newAnswers(),
		failures: map[string]*failure{},
	}
	cc := corpus.DefaultConfig()
	cc.Packages = cfg.packages
	cc.Seed = cfg.seed
	c, err := corpus.Generate(cc)
	if err != nil {
		return nil, err
	}
	e.truth = newTruth(c)
	if err := c.Save(e.corpusDir()); err != nil {
		return nil, err
	}
	// Set-up ends with the corpus on disk, not in dirty pages whose
	// writeback would land inside a later measurement.
	syscall.Sync()
	profile, err := loadgen.FromCorpus(c, e.truth.importanceOrder())
	if err != nil {
		return nil, err
	}
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			if e.elfPkg == "" && bytes.Equal(f.Data, profile.ELF) {
				e.elfPkg = name
			}
		}
	}
	e.profile = profile
	if e.stream, err = newStream(profile, cfg.seed); err != nil {
		return nil, err
	}
	if e.rep, err = startReplica(repro.EmptyStudy(), dir, cfg.wrap); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) corpusDir() string { return filepath.Join(e.dir, "corpus") }

// close stops the replica. The set-up's files stay until the run ends:
// on a file system that discards freed blocks, deleting thousands of
// files slows the metadata operations that follow, so no deletion runs
// between measurements.
func (e *env) close() error { return e.rep.close() }

// fail counts n failed operations of one kind.
func (e *env) fail(kind string, n int, example string) {
	e.failed += n
	f := e.failures[kind]
	if f == nil {
		f = &failure{example: example}
		e.failures[kind] = f
	}
	f.count += n
}

// failureReport lists the failures by kind, most frequent first.
func (e *env) failureReport() []string {
	var kinds []string
	for k := range e.failures {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return e.failures[kinds[i]].count > e.failures[kinds[j]].count })
	var out []string
	for _, k := range kinds {
		out = append(out, fmt.Sprintf("%s: %d, e.g. %s", k, e.failures[k].count, e.failures[k].example))
	}
	return out
}

// checkStudy compares every package footprint of a built study with the
// planted ground truth; each package is one checked operation.
func (e *env) checkStudy(s *repro.Study) {
	e.attempted += len(e.truth.pkgs)
	for _, err := range e.truth.checkFootprints(s.Core().Input.Footprints) {
		e.fail("study footprint differs from planted", 1, err.Error())
	}
}

// publishesPerCycle is how many times each timed cycle publishes the
// study it built, each at a new generation: publishing is a third of a
// cold build's time, so one build feeds several publish_to_serve_s
// samples.
const publishesPerCycle = 3

// cycle is one publish cycle: it builds the corpus directory into a
// study (with no analysis cache for cold, through a fresh handle on the
// warmed cache otherwise), then publishes that study the given number of
// times. Only the build and the publishes are timed.
func (e *env) cycle(traced bool, publishes int) (build time.Duration, publish []time.Duration, err error) {
	tr := e.tr
	if !traced {
		tr = nil
	}
	id := e.cycles
	e.cycles++
	var cache *repro.AnalysisCache
	if e.cacheDir != "" {
		if cache, err = repro.OpenAnalysisCache(e.cacheDir); err != nil {
			return 0, nil, err
		}
	}
	runtime.GC() // one cycle's garbage is not charged to the next

	var side []sideJob
	h := tr.begin("study.build", -1, id)
	t0 := time.Now()
	study, err := buildStudy(e.corpusDir(), cache, tr, h, id, &e.counts, &side)
	build = time.Since(t0)
	tr.end(h)
	if err != nil {
		return 0, nil, err
	}
	e.checkStudy(study)
	if tr != nil {
		if err := e.sidePass(tr, id, side); err != nil {
			return 0, nil, err
		}
		// metrics.Record runs inside the build; time it beside, on the
		// same input, with its allocation.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := tr.begin("metrics.Record", -1, id)
		metrics.Record(store.NewDB(), study.Core().Input)
		tr.end(h)
		runtime.ReadMemStats(&after)
		e.counts.recordAlloc.Add(int64(after.TotalAlloc - before.TotalAlloc))
	}

	for i := 0; i < publishes; i++ {
		runtime.GC() // the build's garbage is not charged to the publish
		p, err := e.publish(study, tr, id)
		if err != nil {
			return 0, nil, err
		}
		publish = append(publish, p)
	}
	return build, publish, nil
}

// sidePass runs, beside a traced build, the calls footprint.Analyze
// makes internally (x86.DecodeAll and callgraph.Build) on every binary
// the build analysed, so those two layers get times of their own; on
// cold it also writes each summary into an empty analysis cache, timing
// the record writes a first cached build pays. Keeping this out of the
// build keeps traced and untraced builds doing the same work.
func (e *env) sidePass(tr *tracer, id int64, side []sideJob) error {
	var cache *repro.AnalysisCache
	if e.cacheDir == "" && len(side) > 0 {
		var err error
		cache, err = repro.OpenAnalysisCache(filepath.Join(e.dir, fmt.Sprintf("cache-%d", id)))
		if err != nil {
			return err
		}
	}
	h := tr.begin("side", -1, id)
	defer tr.end(h)
	return layerPass(side, cache, tr, h, id, &e.counts)
}

// publish takes a built study through snapshot bytes, the replica study
// and Swap to the first 200 on the new generation, and checks that the
// replica serves the publisher's fingerprint.
func (e *env) publish(study *repro.Study, tr *tracer, id int64) (time.Duration, error) {
	h := tr.begin("publish", -1, id)
	t1 := time.Now()
	hs := tr.begin("snapshot.Encode", h, id)
	data, err := study.EncodeSnapshot(uint64(id + 1))
	tr.end(hs)
	if err != nil {
		return 0, err
	}
	hs = tr.begin("snapshot.Decode", h, id)
	replicaStudy, err := repro.DecodeSnapshotStudy(data)
	tr.end(hs)
	if err != nil {
		return 0, err
	}
	hs = tr.begin("service.Swap", h, id)
	gen := e.rep.svc.Swap(replicaStudy, "publish cycle")
	tr.end(hs)
	e.served[gen] = true
	hs = tr.begin("publish.first200", h, id)
	err = e.rep.waitGeneration(gen)
	tr.end(hs)
	publish := time.Since(t1)
	tr.end(h)
	if err != nil {
		return 0, err
	}
	e.counts.snapshotBytes.Store(int64(len(data)))
	e.attempted++
	if replicaStudy.Fingerprint() != study.Fingerprint() {
		e.fail("replica fingerprint differs from publisher's", 1,
			replicaStudy.Fingerprint()+" vs "+study.Fingerprint())
	}
	if e.snapData, err = study.SnapshotData(0); err != nil {
		return 0, err
	}
	return publish, nil
}

// encodePush encodes the next snapshot push: the last published study at
// a fresh generation.
func (e *env) encodePush() ([]byte, error) {
	d := *e.snapData
	d.Generation = uint64(firstPushGen + e.pushes)
	e.pushes++
	e.served[d.Generation] = true
	return snapshot.Encode(&d)
}

// warmUp is discarded: one publish cycle (intern table, page cache,
// first hotset) and a short stage at the fixed rate. For warm, the cycle
// builds through an empty cache directory that every later cycle then
// finds warm.
func (e *env) warmUp() error {
	if !workloads[e.cfg.workload].cold {
		e.cacheDir = filepath.Join(e.dir, "warm-cache")
	}
	if _, _, err := e.cycle(false, 1); err != nil {
		return err
	}
	st := e.runStage(stageOpts{rate: fixedRPS, dur: time.Second})
	e.account(st)
	return nil
}

func (e *env) account(st stageResult) {
	e.attempted += st.sent
	if st.failed > 0 {
		e.fail("request failed", st.failed, strings.Join(st.errs, "; "))
	}
}

// measured is what the timed phase produced.
type measured struct {
	buildS, publishS    samples // untraced cycles
	tracedBuildS        samples // traced cycles (traced run only)
	fixed               stageResult
	pushS               samples // s per snapshot push
	ladderSent          int
	ladderShed          int
	maxRPS              float64
	ladderInfo          string
	liveHeapMB          float64
	gcCycles            uint32
	gcPause             time.Duration
	buildAllocMB        float64 // per publish cycle
	requestAllocKB      float64 // per request
	svcBefore, svcAfter service.Stats
	direct              map[string]samples
}

// timed runs the measured phase: publish cycles, then the fixed-rate
// stage, then (traced runs only) the ladder search, then the answer
// check. In a traced run every other publish cycle is traced, so the
// untraced ones measure the tracing overhead.
func (e *env) timed(cfg config) (*measured, error) {
	m := &measured{svcBefore: e.rep.svc.Stats()}
	total := time.Duration(cfg.seconds) * time.Second
	fixedDur := time.Duration(fixedShare * float64(total))
	buildBudget := time.Duration(buildShare * float64(total))
	var ms0, msA, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < buildBudget; i++ {
		traced := e.tr != nil && i%2 == 1
		b, p, err := e.cycle(traced, publishesPerCycle)
		if err != nil {
			return nil, fmt.Errorf("publish cycle: %w", err)
		}
		if traced {
			m.tracedBuildS = append(m.tracedBuildS, b.Seconds())
			continue
		}
		m.buildS = append(m.buildS, b.Seconds())
		for _, d := range p {
			m.publishS = append(m.publishS, d.Seconds())
		}
	}
	runtime.ReadMemStats(&msA)
	cycles := len(m.buildS) + len(m.tracedBuildS)
	m.buildAllocMB = float64(msA.TotalAlloc-ms0.TotalAlloc) / float64(cycles) / (1 << 20)

	m.fixed = e.runStage(stageOpts{rate: fixedRPS, dur: fixedDur, keepStream: e.tr != nil})
	e.account(m.fixed)
	requests := m.fixed.sent
	if e.tr != nil {
		sent, err := e.searchLadder(m)
		if err != nil {
			return nil, err
		}
		requests += sent
	}
	e.verifyAnswers()

	// Live heap with the replica still referenced and the benchmark's own
	// state dropped: the oracle, the checked answers and the publisher's
	// snapshot. What else stays is small and the same size every run:
	// the request profile and the fixed-rate stage's samples.
	e.truth, e.answers, e.snapData = nil, nil, nil
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	runtime.KeepAlive(e.rep)
	m.liveHeapMB = float64(ms1.HeapAlloc) / (1 << 20)
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	m.requestAllocKB = float64(ms1.TotalAlloc-msA.TotalAlloc) / float64(max(requests, 1)) / 1024
	m.svcAfter = e.rep.svc.Stats()
	if e.tr != nil {
		var err error
		if m.direct, err = e.replayDirect(m.fixed.requests); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// searchLadder bisects the ladder for its highest rate that meets the
// limit, assuming a rate meets it whenever a higher one does, and
// returns how many requests its stages sent. A miss in the ladder's
// lower half is confirmed by a second stage before the search goes
// below it: a single stall of the machine can fail one stage, and a
// miss there would cost the search half its range.
func (e *env) searchLadder(m *measured) (int, error) {
	lo, hi := -1, len(ladder)
	var failures []string
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		tries := 1
		if mid < len(ladder)/2 {
			tries = 2
		}
		for try := 0; try < tries; try++ {
			if err := e.resetServing(m); err != nil {
				return 0, err
			}
			st := e.runStage(stageOpts{rate: ladder[mid], dur: ladderStage})
			e.account(st)
			m.ladderSent += st.sent
			m.ladderShed += st.shed
			ok, why := st.meetsSLO(sloP99Ms)
			if ok {
				lo = mid
				m.maxRPS = float64(st.sent) / st.paced.Seconds()
				m.ladderInfo = fmt.Sprintf("met at %g rps (p99 %.1f ms, n=%d)", ladder[lo], st.lat.quantile(0.99), len(st.lat))
				break
			}
			failures = append(failures, fmt.Sprintf("%g rps: %s", ladder[mid], why))
		}
		if lo < mid {
			hi = mid
		}
	}
	if lo < 0 {
		m.ladderInfo = "no ladder rate met the limit"
	}
	if len(failures) > 0 {
		m.ladderInfo += "; missed at " + strings.Join(failures, ", ")
	}
	return m.ladderSent, nil
}

// resetServing starts a ladder stage from the same state as every other:
// the publisher pushes the last published study again through
// POST /v1/snapshot, which installs it under a new generation with an
// empty byte cache and a rebuilt hotset, and the request stream restarts
// from its seed.
func (e *env) resetServing(m *measured) error {
	data, err := e.encodePush()
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = e.rep.push(data)
	m.pushS = append(m.pushS, time.Since(t0).Seconds())
	e.attempted++
	if err != nil {
		e.fail("snapshot push failed", 1, err.Error())
	}
	e.stream, err = newStream(e.profile, e.cfg.seed)
	return err
}

// verifyAnswers checks every distinct 200 answer of the serving stages
// against the ground truth; each wrong answer counts once per time it
// was served.
func (e *env) verifyAnswers() {
	for _, list := range e.answers.m {
		for _, a := range list {
			if err := e.checkAnswer(a.req, a.body); err != nil {
				e.fail(fmt.Sprintf("wrong %s answer", a.req.Endpoint), a.count,
					fmt.Sprintf("%s %s: %v", a.req.Method, a.req.Path, err))
			}
		}
	}
}

const tolerance = 1e-9

// checkAnswer checks one answer against the ground truth, and that it
// came from a generation the replica was given.
func (e *env) checkAnswer(req loadgen.Request, body []byte) error {
	var v struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if !e.served[v.Generation] {
		return fmt.Errorf("answer from unknown generation %d", v.Generation)
	}
	return checkBody(e.truth, e.truth.footprint[e.elfPkg], req, body)
}

// checkBody compares one endpoint's answer with the truth. Field shapes
// differ by endpoint ("syscalls" is a count in a completeness answer and
// a list elsewhere), so each decodes its own. uploadPlanted is the
// planted syscall list of the uploaded binary's package.
func checkBody(t *truth, uploadPlanted []string, req loadgen.Request, body []byte) error {
	near := func(what string, got, want float64) error {
		if math.Abs(got-want) > tolerance {
			return fmt.Errorf("%s %.12g, ground truth %.12g", what, got, want)
		}
		return nil
	}
	switch req.Endpoint {
	case loadgen.EpImportance:
		var v service.ImportanceResult
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		return near("importance", v.Importance, t.importance[strings.TrimPrefix(req.Path, "/v1/importance/")])
	case loadgen.EpFootprint:
		var v service.FootprintResult
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		pkg := strings.TrimPrefix(req.Path, "/v1/footprint/")
		if !slices.Equal(v.Syscalls, t.footprint[pkg]) {
			return fmt.Errorf("footprint %v, planted %v", v.Syscalls, t.footprint[pkg])
		}
	case loadgen.EpCompleteness:
		var v service.CompletenessResult
		var q struct{ Syscalls []string }
		if err := decodeBoth(body, &v, req.Body, &q); err != nil {
			return err
		}
		return near("completeness", v.Completeness, t.completeness(q.Syscalls))
	case loadgen.EpSuggest:
		var v service.SuggestResult
		var q struct {
			Supported []string
			K         int
		}
		if err := decodeBoth(body, &v, req.Body, &q); err != nil {
			return err
		}
		if len(v.Suggestions) > q.K {
			return fmt.Errorf("%d suggestions for k=%d", len(v.Suggestions), q.K)
		}
		have := append([]string(nil), q.Supported...)
		for _, s := range v.Suggestions {
			have = append(have, s.Syscall)
			if err := near("suggested importance of "+s.Syscall, s.Importance, t.importance[s.Syscall]); err != nil {
				return err
			}
			if err := near("completeness after "+s.Syscall, s.CompletenessAfter, t.completeness(have)); err != nil {
				return err
			}
		}
	case loadgen.EpPath:
		var v service.GreedyPrefixResult
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Curve) != v.N || len(v.Syscalls) != v.N {
			return fmt.Errorf("path of %d steps says n=%d", len(v.Curve), v.N)
		}
		for i, pt := range v.Curve {
			if err := near("path importance of "+pt.Syscall, pt.Importance, t.importance[pt.Syscall]); err != nil {
				return err
			}
			if err := near(fmt.Sprintf("path completeness at step %d", i+1), pt.Completeness, t.completeness(v.Syscalls[:i+1])); err != nil {
				return err
			}
		}
	case loadgen.EpAnalyze:
		var v service.AnalyzeResult
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		// The upload comes from the set-up corpus; a snapshot replica has
		// no libraries to resolve against, so it reports the binary's own
		// calls, which the package's planted footprint must contain.
		for _, sc := range v.Syscalls {
			if i := sort.SearchStrings(uploadPlanted, sc); i == len(uploadPlanted) || uploadPlanted[i] != sc {
				return fmt.Errorf("analyzed %s, not planted in the upload's package", sc)
			}
		}
		if len(v.Syscalls) == 0 {
			return fmt.Errorf("analysis found no syscalls")
		}
	}
	return nil
}

// decodeBoth decodes an answer and the request it answers.
func decodeBoth(answer []byte, v any, request []byte, q any) error {
	if err := json.Unmarshal(answer, v); err != nil {
		return err
	}
	return json.Unmarshal(request, q)
}

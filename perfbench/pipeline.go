package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/x86"
)

// layerCounts are the work counts the traced analyzer records at the
// layer boundaries it times.
type layerCounts struct {
	corpusBytes atomic.Int64
	binaries    atomic.Int64
	insts       atomic.Int64
	nodes       atomic.Int64
	edges       atomic.Int64
	sites       atomic.Int64
	unresolved  atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	recordAlloc atomic.Int64 // bytes metrics.Record allocated
	// snapshotBytes is the size of the last encoded snapshot.
	snapshotBytes atomic.Int64
}

// buildStudy turns a corpus directory into a study the way a publisher
// does. Untraced it is exactly repro.LoadStudyDistributed with the
// in-process analyzer; traced it makes the same two calls that function
// makes (corpus.Load, then the pipeline over the loaded corpus) and
// plugs a timed analyzer into the core.JobAnalyzer seam, which appends
// every binary it analysed to side.
func buildStudy(dir string, cache *repro.AnalysisCache, tr *tracer, parent int, id int64, k *layerCounts, side *[]sideJob) (*repro.Study, error) {
	if tr == nil {
		return repro.LoadStudyDistributed(dir, cache, nil)
	}
	h := tr.begin("corpus.Load", parent, id)
	c, err := corpus.Load(dir)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			k.corpusBytes.Add(int64(len(f.Data)))
		}
	}
	h = tr.begin("core.RunWith", parent, id)
	s, err := repro.NewStudyOverCorpus(c, cache, tracedAnalyzer(tr, h, id, cache, k, side))
	tr.end(h)
	if cache != nil {
		st := cache.Stats()
		k.cacheHits.Add(int64(st.Hits))
		k.cacheMisses.Add(int64(st.Misses))
	}
	return s, err
}

// sideJob is one binary a traced build analysed, with its summary.
type sideJob struct {
	path string
	data []byte
	sum  *footprint.Summary
}

// tracedAnalyzer mirrors core.AnalyzeJobsLocal (one worker per CPU,
// cache lookup, ELF open, analysis, summary, cache write) with a span
// around every call, and appends the binaries it analysed to side.
func tracedAnalyzer(tr *tracer, parent int, id int64, cache *repro.AnalysisCache, k *layerCounts, side *[]sideJob) repro.JobAnalyzer {
	return func(jobs []core.BinaryJob, opts footprint.Options) []core.JobResult {
		h := tr.begin("core.JobAnalyzer", parent, id)
		defer tr.end(h)
		results := make([]core.JobResult, len(jobs))
		analysed := make([]bool, len(jobs))
		parallel(len(jobs), func(i int) {
			results[i], analysed[i] = analyzeJob(jobs[i], opts, cache, tr, h, id, k)
		})
		for i, j := range jobs {
			if analysed[i] {
				*side = append(*side, sideJob{path: j.Path, data: j.Data, sum: results[i].Summary})
			}
		}
		return results
	}
}

// parallel calls f(0..n-1) on one worker per CPU.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// analyzeJob is one job of core.AnalyzeJobsLocal with spans; analysed
// reports whether it ran the analysis rather than hitting the cache.
func analyzeJob(j core.BinaryJob, opts footprint.Options, cache *repro.AnalysisCache, tr *tracer, parent int, id int64, k *layerCounts) (res core.JobResult, analysed bool) {
	if cache != nil {
		h := tr.begin("anacache.Get", parent, id)
		sum, ok := cache.Get(j.Data)
		tr.end(h)
		if ok {
			return core.JobResult{Summary: sum}, false
		}
	}
	h := tr.begin("elfx.Open", parent, id)
	bin, err := elfx.Open(j.Path, j.Data)
	tr.end(h)
	if err != nil {
		return core.JobResult{Err: err}, false
	}
	k.binaries.Add(1)
	h = tr.begin("footprint.Analyze", parent, id)
	a := footprint.Analyze(bin, opts)
	tr.end(h)
	h = tr.begin("footprint.Summarize", parent, id)
	sum := footprint.Summarize(a)
	tr.end(h)
	k.sites.Add(int64(sum.Sites))
	k.unresolved.Add(int64(sum.Unresolved))
	res = core.JobResult{Summary: sum}
	if j.Lib {
		res.Analysis = a
	}
	if cache != nil {
		h = tr.begin("anacache.Put", parent, id)
		_ = cache.Put(j.Data, sum) // advisory, as in core.AnalyzeJobsLocal
		tr.end(h)
	}
	return res, true
}

// layerPass calls x86.DecodeAll and callgraph.Build, which
// footprint.Analyze calls internally, on every binary of side, and
// writes each summary into cache if there is one.
func layerPass(side []sideJob, cache *repro.AnalysisCache, tr *tracer, parent int, id int64, k *layerCounts) error {
	errs := make([]error, len(side))
	parallel(len(side), func(i int) {
		j := side[i]
		bin, err := elfx.Open(j.path, j.data)
		if err != nil {
			errs[i] = err
			return
		}
		h := tr.begin("x86.DecodeAll", parent, id)
		n := len(x86.DecodeAll(bin.Text.Data, bin.Text.Addr)) + len(x86.DecodeAll(bin.Plt.Data, bin.Plt.Addr))
		tr.end(h)
		k.insts.Add(int64(n))
		h = tr.begin("callgraph.Build", parent, id)
		g := callgraph.Build(bin)
		tr.end(h)
		edges := 0
		for _, f := range g.Funcs {
			edges += len(f.Calls) + len(f.Taken)
		}
		k.nodes.Add(int64(len(g.Funcs)))
		k.edges.Add(int64(edges))
		if cache != nil {
			h = tr.begin("anacache.Put", parent, id)
			_ = cache.Put(j.data, j.sum)
			tr.end(h)
		}
	})
	return errors.Join(errs...)
}

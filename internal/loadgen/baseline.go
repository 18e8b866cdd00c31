package loadgen

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/service"
)

// Baseline is the read path the serving gates measure the encoded hot
// path against: the query handlers as they were before answers were kept
// as bytes. Derived answers (completeness, suggest, greedy path) sit as
// structs in one 512-entry LRU behind a single global mutex, and every
// request encodes its struct answer with a fresh indented JSON encoder.
// It serves the five read routes the gates drive with the bodies a fresh
// server (generation 1) writes, over the public repro.Study API.
type Baseline struct {
	study *repro.Study
	mux   *http.ServeMux
	mu    sync.Mutex
	lru   *list.List // of *baselineEntry, most recently used first
	items map[string]*list.Element
}

type baselineEntry struct {
	key string
	v   any
}

// NewBaseline serves study through the baseline read path.
func NewBaseline(study *repro.Study) *Baseline {
	b := &Baseline{study: study, mux: http.NewServeMux(), lru: list.New(), items: make(map[string]*list.Element)}
	route := func(pattern string, answer func(r *http.Request) (int, any)) {
		b.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			status, v := answer(r)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(v)
		})
	}
	decode := func(r *http.Request) (q struct {
		Syscalls, Supported []string
		K                   int
	}) {
		json.NewDecoder(r.Body).Decode(&q)
		return q
	}
	route("GET /v1/importance/{syscall}", func(r *http.Request) (int, any) { return b.Importance(r.PathValue("syscall")) })
	route("GET /v1/footprint/{pkg}", func(r *http.Request) (int, any) { return b.Footprint(r.PathValue("pkg")) })
	route("POST /v1/completeness", func(r *http.Request) (int, any) { return b.Completeness(decode(r).Syscalls) })
	route("POST /v1/suggest", func(r *http.Request) (int, any) { q := decode(r); return b.Suggest(q.Supported, q.K) })
	route("GET /v1/path", func(r *http.Request) (int, any) { n, _ := strconv.Atoi(r.URL.Query().Get("n")); return b.Path(n) })
	return b
}

// ServeHTTP routes the five baseline read routes.
func (b *Baseline) ServeHTTP(w http.ResponseWriter, r *http.Request) { b.mux.ServeHTTP(w, r) }

// cached returns the struct cached under key, or computes it outside
// the lock and stores it, evicting the least recently used entry.
func (b *Baseline) cached(key string, compute func() any) (any, bool) {
	b.mu.Lock()
	if el, ok := b.items[key]; ok {
		b.lru.MoveToFront(el)
		b.mu.Unlock()
		return el.Value.(*baselineEntry).v, true
	}
	b.mu.Unlock()
	v := compute()
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.items[key]; ok {
		b.lru.MoveToFront(el)
	} else if b.items[key] = b.lru.PushFront(&baselineEntry{key, v}); b.lru.Len() > 512 {
		delete(b.items, b.lru.Remove(b.lru.Back()).(*baselineEntry).key)
	}
	return v, false
}

// Importance answers /v1/importance/{syscall}; 404 outside the table.
func (b *Baseline) Importance(name string) (int, any) {
	res := service.ImportanceResult{Syscall: name, Known: linuxapi.SyscallByName(name) != nil,
		Importance: b.study.Importance(name), Unweighted: b.study.UnweightedImportance(name), Generation: 1}
	if !res.Known && res.Importance == 0 {
		return http.StatusNotFound, res
	}
	return http.StatusOK, res
}

// Footprint answers /v1/footprint/{pkg}.
func (b *Baseline) Footprint(pkg string) (int, any) {
	if b.study.Core().Input.Footprints[pkg] == nil {
		return http.StatusNotFound, nil
	}
	return http.StatusOK, service.FootprintResult{Package: pkg, Syscalls: b.study.PackageFootprint(pkg), Generation: 1}
}

// Completeness answers /v1/completeness.
func (b *Baseline) Completeness(names []string) (int, any) {
	known, unknown, key := normalize(names)
	v, hit := b.cached("wc|"+key, func() any { return b.study.WeightedCompleteness(known) })
	return http.StatusOK, service.CompletenessResult{Syscalls: len(known), Unknown: unknown,
		Completeness: v.(float64), Generation: 1, Cached: hit}
}

// Suggest answers /v1/suggest (k <= 0 means 5).
func (b *Baseline) Suggest(supported []string, k int) (int, any) {
	if k <= 0 {
		k = 5
	}
	known, unknown, key := normalize(supported)
	v, hit := b.cached("sugg|"+strconv.Itoa(k)+"|"+key, func() any { return b.study.SuggestNext(known, k) })
	return http.StatusOK, service.SuggestResult{Supported: len(known), Unknown: unknown,
		Suggestions: v.([]repro.Suggestion), Generation: 1, Cached: hit}
}

// Path answers /v1/path?n= (n <= 0: the whole greedy path).
func (b *Baseline) Path(n int) (int, any) {
	v, hit := b.cached("path", func() any { return b.study.GreedyPath() })
	path := v.([]metrics.PathPoint)
	if n <= 0 || n > len(path) {
		n = len(path)
	}
	res := service.GreedyPrefixResult{N: n, Generation: 1, Cached: hit}
	for _, pt := range path[:n] {
		res.Syscalls = append(res.Syscalls, pt.API.Name)
		res.Curve = append(res.Curve, service.CurvePointJSON{
			N: pt.N, Syscall: pt.API.Name, Importance: pt.Importance, Completeness: pt.Completeness})
	}
	return http.StatusOK, res
}

// normalize splits names like the API does and fingerprints the known
// set for cache keys.
func normalize(names []string) (known, unknown []string, key string) {
	known, unknown = linuxapi.SplitSyscalls(names)
	h := sha256.Sum256([]byte(strings.Join(known, "\x00")))
	return known, unknown, hex.EncodeToString(h[:12])
}

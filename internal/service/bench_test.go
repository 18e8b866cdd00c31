package service_test

// The service benchmarks live in an external test package: the
// hot-path benchmark's baseline is loadgen.Baseline, and loadgen
// imports service.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/service"
)

var (
	benchOnce  sync.Once
	benchStudy *repro.Study
	benchErr   error
)

// benchService serves one small study (built once per test binary)
// from a fresh service.
func benchService(b *testing.B) *service.Service {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = repro.NewStudy(repro.Config{Packages: 150, Installations: 200000, Seed: 21})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return service.New(benchStudy, "bench", service.Config{})
}

var warmFlag = []byte(`"cached": true`)

// BenchmarkServiceCompletenessQuery is the serving-path baseline: the
// same weighted-completeness question answered cold (straight through
// the metrics machinery) and warm (through the service's byte cache).
// Future serving PRs should move the cached number, not the uncached one.
func BenchmarkServiceCompletenessQuery(b *testing.B) {
	svc := benchService(b)
	path := svc.Snapshot().Study.GreedyPath()
	var names []string
	for _, pt := range path {
		if len(names) >= 145 {
			break
		}
		names = append(names, pt.API.Name)
	}

	b.Run("uncached", func(b *testing.B) {
		study := svc.Snapshot().Study
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			study.WeightedCompleteness(names)
		}
	})

	b.Run("cached", func(b *testing.B) {
		if _, err := svc.CompletenessBytes(-1, names); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, err := svc.CompletenessBytes(-1, names)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Contains(enc.Body, warmFlag) {
				b.Fatal("cache miss on warm entry")
			}
		}
	})

	b.Run("uncached-through-service", func(b *testing.B) {
		// A distinct unknown name per query: every query misses and pays
		// the full metrics cost plus encoding and cache bookkeeping.
		set := append([]string(nil), names...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set = append(set[:len(names)], fmt.Sprintf("unknown_%d", i))
			enc, err := svc.CompletenessBytes(-1, set)
			if err != nil {
				b.Fatal(err)
			}
			if bytes.Contains(enc.Body, warmFlag) {
				b.Fatal("unexpected cache hit")
			}
		}
	})
}

// BenchmarkQueryHotPath is the read-path showdown the serving gate is
// built on: the same parallel mixed-read workload (importance-heavy
// with completeness, suggest and path queries — the shape the load
// generator drives) answered by the baseline read path (loadgen.Baseline:
// structs behind one global-mutex cache, re-encoded per request) as
// "legacy", and by the encoded byte path (hotset + sharded byte cache +
// singleflight) as "hot". Run with -benchmem; benchgate derives
// hotpath_speedup = legacy/hot and gates it >= 2x.
func BenchmarkQueryHotPath(b *testing.B) {
	svc := benchService(b)
	path := svc.Snapshot().Study.GreedyPath()
	var names []string
	for _, pt := range path {
		names = append(names, pt.API.Name)
	}
	if len(names) < 40 {
		b.Fatalf("greedy path too short: %d", len(names))
	}
	sets := [][]string{names[:10], names[:25], names[:40]}

	// encodeLegacy reproduces what the baseline handler does after the
	// struct comes back: encode indented JSON into a fresh buffer.
	encodeLegacy := func(b *testing.B, v any) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			b.Fatal(err)
		}
		if buf.Len() == 0 {
			b.Fatal("empty encoding")
		}
	}

	// One mixed operation per iteration, spread deterministically by a
	// shared counter: 4 importance : 2 completeness : 1 suggest : 1 path.
	b.Run("legacy", func(b *testing.B) {
		var ctr atomic.Uint64
		base := loadgen.NewBaseline(svc.Snapshot().Study)
		// Warm the struct cache so steady state is measured, not fill.
		for _, set := range sets {
			base.Completeness(set)
			base.Suggest(set, 3)
		}
		base.Path(0)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := ctr.Add(1)
				var v any
				switch i % 8 {
				case 0, 1, 2, 3:
					_, v = base.Importance(names[i%40])
				case 4, 5:
					_, v = base.Completeness(sets[i%3])
				case 6:
					_, v = base.Suggest(sets[i%3], 3)
				default:
					_, v = base.Path(0)
				}
				encodeLegacy(b, v)
			}
		})
	})

	b.Run("hot", func(b *testing.B) {
		var ctr atomic.Uint64
		for _, set := range sets { // warm the byte cache the same way
			if _, err := svc.CompletenessBytes(-1, set); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.SuggestBytes(-1, set, 3); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := svc.PathBytes(-1, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := ctr.Add(1)
				var enc service.Encoded
				var err error
				switch i % 8 {
				case 0, 1, 2, 3:
					enc, err = svc.ImportanceBytes(-1, names[i%40])
				case 4, 5:
					enc, err = svc.CompletenessBytes(-1, sets[i%3])
				case 6:
					enc, err = svc.SuggestBytes(-1, sets[i%3], 3)
				default:
					enc, err = svc.PathBytes(-1, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
				if len(enc.Body) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
	})
}

package core

import (
	"sync"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/store"
)

// TestTablesBuiltOnDemand: a build leaves the store empty, and the
// first Tables call fills it with exactly what an eager metrics.Record
// would have.
func TestTablesBuiltOnDemand(t *testing.T) {
	s, err := Run(cacheTestCorpus(t), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tables, rows := s.DB.Stats(); tables != 0 || rows != 0 {
		t.Fatalf("after Run: store holds %d tables / %d rows, want none until Tables()", tables, rows)
	}
	eager := store.NewDB()
	metrics.Record(eager, s.Input)
	wantTables, wantRows := eager.Stats()

	tb := s.Tables()
	if tb == nil || tb.PkgAPI.Len() == 0 {
		t.Fatal("Tables() returned no pkg_api rows")
	}
	if tables, rows := s.DB.Stats(); tables != wantTables || rows != wantRows {
		t.Errorf("after Tables(): %d tables / %d rows, eager Record: %d / %d", tables, rows, wantTables, wantRows)
	}
	if again := s.Tables(); again != tb {
		t.Error("second Tables() call rebuilt the tables")
	}
	if tables, rows := s.DB.Stats(); tables != wantTables || rows != wantRows {
		t.Errorf("after a second Tables(): %d tables / %d rows, want %d / %d", tables, rows, wantTables, wantRows)
	}
}

// TestLazyStateConcurrentFirstUse races the first use of both lazily
// derived states — the metrics closure table and the study's store
// tables — from several goroutines; run under -race.
func TestLazyStateConcurrentFirstUse(t *testing.T) {
	s, err := Run(cacheTestCorpus(t), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sup := SupportedSyscallSet([]string{"read", "write", "openat", "close", "mmap", "brk", "exit_group"})
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}

	const goroutines = 8
	wcs := make([]float64, goroutines)
	tbs := make([]*metrics.Tables, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			wcs[g] = metrics.WeightedCompleteness(s.Input, sup, opts)
			tbs[g] = s.Tables()
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if wcs[g] != wcs[0] {
			t.Errorf("goroutine %d: WeightedCompleteness = %v, goroutine 0 got %v", g, wcs[g], wcs[0])
		}
		if tbs[g] != tbs[0] {
			t.Errorf("goroutine %d got a different *Tables than goroutine 0", g)
		}
	}
	eager := store.NewDB()
	metrics.Record(eager, s.Input)
	wantTables, wantRows := eager.Stats()
	if tables, rows := s.DB.Stats(); tables != wantTables || rows != wantRows {
		t.Errorf("after concurrent Tables(): %d tables / %d rows, want %d / %d", tables, rows, wantTables, wantRows)
	}
}

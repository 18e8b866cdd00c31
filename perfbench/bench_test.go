package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/linuxapi"
)

// tinyConfig is a run over a corpus small enough for a unit test.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 2, trace: trace, packages: 120, workdir: t.TempDir()}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrints runs every workload untraced and traced and
// checks that each prints exactly the metrics BENCHMARK.json declares
// for that mode, each with its declared unit.
func TestEveryMetricPrints(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			for n, u := range want {
				if got[n] != u {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", name, trace, n, got[n], u)
				}
			}
			for n := range got {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", name, trace, n)
				}
			}
			if res.attempted == 0 {
				t.Errorf("%s trace=%v: nothing attempted", name, trace)
			}
		}
	}
}

// corrupt wraps the replica so every 200 answer under prefix is decoded,
// edited and re-encoded before it reaches the client.
func corrupt(prefix string, edit func(map[string]any)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, prefix) {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var v map[string]any
			if rec.Code == http.StatusOK && json.Unmarshal(body, &v) == nil {
				edit(v)
				body, _ = json.Marshal(v)
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// serveCorrupted stands up a cold set-up behind the wrapper, serves one
// stage and checks the answers, returning the env for inspection.
func serveCorrupted(t *testing.T, wrap func(http.Handler) http.Handler) *env {
	t.Helper()
	cfg := tinyConfig(t, "study-cold", false)
	cfg.wrap = wrap
	e, err := setup(cfg, cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	if err := e.warmUp(); err != nil {
		t.Fatal(err)
	}
	e.account(e.runStage(stageOpts{rate: fixedRPS, dur: time.Second}))
	e.verifyAnswers()
	return e
}

func TestOracleCatchesFlippedFootprint(t *testing.T) {
	e := serveCorrupted(t, corrupt("/v1/footprint/", func(v map[string]any) {
		calls, _ := v["syscalls"].([]any)
		if len(calls) > 0 {
			v["syscalls"] = calls[1:] // one planted API missing
		} else {
			v["syscalls"] = []any{"read"} // one API never planted
		}
	}))
	if e.failures["wrong footprint answer"] == nil || e.failed == 0 {
		t.Fatalf("flipped footprint bodies went unnoticed: failed=%d %v", e.failed, e.failureReport())
	}
}

func TestOracleCatchesFlippedCompleteness(t *testing.T) {
	e := serveCorrupted(t, corrupt("/v1/completeness", func(v map[string]any) {
		c, _ := v["completeness"].(float64)
		v["completeness"] = c + 1e-6
	}))
	if e.failures["wrong completeness answer"] == nil || e.failed == 0 {
		t.Fatalf("shifted completeness went unnoticed: failed=%d %v", e.failed, e.failureReport())
	}
}

func TestOracleCleanRunHasNoFailures(t *testing.T) {
	e := serveCorrupted(t, nil)
	if e.failed != 0 {
		t.Fatalf("clean cold run failed %d operations: %v", e.failed, e.failureReport())
	}
}

// TestOracleCatchesDroppedAPI checks a study missing one planted API.
func TestOracleCatchesDroppedAPI(t *testing.T) {
	cfg := tinyConfig(t, "study-cold", false)
	e, err := setup(cfg, cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s, err := repro.LoadStudy(e.corpusDir())
	if err != nil {
		t.Fatal(err)
	}
	e.checkStudy(s)
	if e.failed != 0 {
		t.Fatalf("intact study failed %d checks: %v", e.failed, e.failureReport())
	}
	fp := s.Core().Input.Footprints["libc6"]
	dropped := false
	for api := range fp {
		if api.Kind == linuxapi.KindSyscall {
			delete(fp, api)
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("libc6 has no syscall to drop")
	}
	e.checkStudy(s)
	if e.failed != 1 {
		t.Fatalf("dropping one API from one package gave %d failures, want 1", e.failed)
	}
}

package service

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/compat"
	"repro/internal/linuxapi"
)

// TestHotsetMatchesComputePath pins every precomputed answer to the
// compute path: with the hotset bypassed, the same request, answered
// warm from the byte cache, must carry the identical body and ETag.
// This covers each compat target's completeness and the suggest
// curves for k = 1..hotsetSuggestMaxK, which the hotset slices out of
// a single greedy pass.
func TestHotsetMatchesComputePath(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.hot.Load()
	svc.hot.Store(nil)
	prefix := strconv.FormatUint(svc.Snapshot().Generation, 10)

	covered := map[string]bool{}
	check := func(key string, fetch func() (Encoded, error)) {
		t.Helper()
		want, ok := h.entries[key]
		if !ok {
			t.Fatalf("hotset has no entry %q", key)
		}
		if _, err := fetch(); err != nil { // cold: fills the byte cache
			t.Fatalf("%s: %v", key, err)
		}
		got, err := fetch()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got.Status != want.Status || got.ETag != want.ETag || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("%s: compute path %d %s %s, hotset %d %s %s",
				key, got.Status, got.ETag, got.Body, want.Status, want.ETag, want.Body)
		}
		covered[key] = true
	}

	for _, sc := range linuxapi.Syscalls {
		check(impKey(prefix, sc.Name), func() (Encoded, error) { return svc.ImportanceBytes(-1, sc.Name) })
	}
	check(pathKey(prefix, 0), func() (Encoded, error) { return svc.PathBytes(-1, 0) })
	check("compatq|"+prefix, svc.CompatSystemsBytes)

	path := svc.Snapshot().Study.GreedyPath()
	targets := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
	suggests := 0
	for _, sys := range targets {
		var names []string
		for _, api := range compat.SupportedSet(sys, path).Sorted() {
			names = append(names, api.Name)
		}
		known, unknown := linuxapi.SplitSyscalls(names)
		check(wcKey(prefix, known, unknown), func() (Encoded, error) { return svc.CompletenessBytes(-1, names) })
		for k := 1; k <= hotsetSuggestMaxK; k++ {
			check(suggestKey(prefix, k, known, unknown), func() (Encoded, error) { return svc.SuggestBytes(-1, names, k) })
			suggests++
		}
	}
	if want := len(targets) * hotsetSuggestMaxK; suggests != want {
		t.Errorf("checked %d suggest entries, want %d", suggests, want)
	}
	if len(covered) != len(h.entries) {
		t.Errorf("checked %d distinct entries, hotset holds %d", len(covered), len(h.entries))
	}
}

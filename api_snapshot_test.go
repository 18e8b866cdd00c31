package repro

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/store"
)

// TestSnapshotStudyEquivalence is the core snapshot guarantee: a study
// restored from a snapshot file answers every read-path query exactly —
// bit-for-bit on floats — as the study that wrote it.
func TestSnapshotStudyEquivalence(t *testing.T) {
	s := smallStudy(t)
	path := filepath.Join(t.TempDir(), "study.snap")
	if err := s.WriteSnapshot(path, 3); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	r, err := LoadSnapshotStudy(path)
	if err != nil {
		t.Fatalf("LoadSnapshotStudy: %v", err)
	}
	defer r.Close()

	if r.SnapshotGeneration() != 3 {
		t.Errorf("SnapshotGeneration = %d, want 3", r.SnapshotGeneration())
	}
	if !r.FromSnapshot() {
		t.Error("FromSnapshot = false")
	}
	if got, want := r.Fingerprint(), s.Fingerprint(); got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
	if got, want := r.Meta(), s.Meta(); !reflect.DeepEqual(got, want) {
		t.Errorf("Meta mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(r.Metrics().Importance, s.Metrics().Importance) {
		t.Error("Importance maps differ")
	}
	if !reflect.DeepEqual(r.Metrics().Unweighted, s.Metrics().Unweighted) {
		t.Error("Unweighted maps differ")
	}
	if !reflect.DeepEqual(r.GreedyPath(), s.GreedyPath()) {
		t.Error("GreedyPath differs")
	}
	if !reflect.DeepEqual(r.Packages(), s.Packages()) {
		t.Error("package lists differ")
	}
	for _, pkg := range s.Packages()[:5] {
		if !reflect.DeepEqual(r.PackageFootprint(pkg), s.PackageFootprint(pkg)) {
			t.Errorf("PackageFootprint(%s) differs", pkg)
		}
	}
	sets := [][]string{
		nil,
		{"read", "write", "open", "close", "mmap"},
	}
	var prefix []string
	for _, pt := range s.GreedyPath()[:40] {
		prefix = append(prefix, pt.API.Name)
	}
	sets = append(sets, prefix)
	for _, set := range sets {
		if got, want := r.WeightedCompleteness(set), s.WeightedCompleteness(set); got != want {
			t.Errorf("WeightedCompleteness(%d syscalls) = %v, want %v", len(set), got, want)
		}
	}
	if !reflect.DeepEqual(r.SuggestNext([]string{"read", "write"}, 5), s.SuggestNext([]string{"read", "write"}, 5)) {
		t.Error("SuggestNext differs")
	}
	if !reflect.DeepEqual(r.EvaluateSystems(), s.EvaluateSystems()) {
		t.Error("EvaluateSystems differs")
	}
}

// TestSnapshotEncodeDeterministic: the byte-for-byte agreement that lets
// independent rebuilds be compared by checksum.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	s := smallStudy(t)
	a, err := s.EncodeSnapshot(1)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	b, err := s.EncodeSnapshot(1)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two snapshot encodes of the same study differ")
	}
}

// TestSnapshotRoundTripReencode: restore, re-encode at the same
// generation, and the bytes must match the original file — nothing is
// lost or reordered by a decode/encode cycle in the same process.
func TestSnapshotRoundTripReencode(t *testing.T) {
	s := smallStudy(t)
	orig, err := s.EncodeSnapshot(9)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	r, err := DecodeSnapshotStudy(orig)
	if err != nil {
		t.Fatalf("DecodeSnapshotStudy: %v", err)
	}
	again, err := r.EncodeSnapshot(9)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(orig, again) {
		t.Error("decode→encode cycle changed the snapshot bytes")
	}
}

func TestEmptyStudy(t *testing.T) {
	s := EmptyStudy()
	m := s.Meta()
	if m.Packages != 0 || m.Executables != 0 {
		t.Errorf("EmptyStudy meta = %+v, want zero counts", m)
	}
	if m.Fingerprint != "empty" {
		t.Errorf("EmptyStudy fingerprint = %q", m.Fingerprint)
	}
	// The read path must not panic on a zero-package study.
	if got := s.WeightedCompleteness([]string{"read"}); got != 0 {
		t.Errorf("empty WeightedCompleteness = %v, want 0", got)
	}
	if got := s.SuggestNext(nil, 3); len(got) != 0 {
		t.Errorf("empty SuggestNext = %v", got)
	}
}

// TestSnapshotStoreTablesOnDemand: restoring a snapshot fills no store
// tables, and Table 12's census — the only reader — comes out the same
// for the built study and the restored one, with the counts an eager
// metrics.Record yields.
func TestSnapshotStoreTablesOnDemand(t *testing.T) {
	s := smallStudy(t)
	raw, err := s.EncodeSnapshot(5)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	r, err := DecodeSnapshotStudy(raw)
	if err != nil {
		t.Fatalf("DecodeSnapshotStudy: %v", err)
	}
	if tables, rows := r.Core().DB.Stats(); tables != 0 || rows != 0 {
		t.Fatalf("after DecodeSnapshotStudy: store holds %d tables / %d rows, want none", tables, rows)
	}
	eager := store.NewDB()
	metrics.Record(eager, s.Core().Input)
	tables, rows := eager.Stats()

	built, restored := s.Metrics().Table12(), r.Metrics().Table12()
	if built != restored {
		t.Errorf("Table12 differs:\nbuilt:\n%s\nrestored:\n%s", built, restored)
	}
	for _, want := range []string{
		fmt.Sprintf("store tables:             %d (paper: 48)\n", tables),
		fmt.Sprintf("store rows:               %d (paper: 428,634,030)\n", rows),
	} {
		if !strings.Contains(restored, want) {
			t.Errorf("Table12 lacks %q:\n%s", want, restored)
		}
	}
}

package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/footprint"
)

// TestSeriesMeasuredFootprintsRecoverPlanted extends the central honesty
// check across a release series: in every generation — carried-forward,
// drifted, rewired and newborn packages alike — the static analysis must
// recover exactly the ground truth the series generator recorded. Five
// generations with heavy drift also re-drift packages drifted or born
// in an earlier generation.
func TestSeriesMeasuredFootprintsRecoverPlanted(t *testing.T) {
	series, err := corpus.GenerateSeries(corpus.SeriesConfig{
		Base:        corpus.Config{Packages: 80, Installations: 100000, Seed: 7},
		Generations: 5,
		Births:      2,
		Deaths:      1,
		Drifts:      8,
		Rewires:     2,
		PopconShift: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for gen, c := range series {
		s, err := Run(c, footprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.Repo.Names() {
			planted, measured := c.Planted[name], s.Input.Footprints[name]
			if measured == nil {
				t.Fatalf("gen %d %s: no measured footprint", gen, name)
			}
			for api := range planted {
				if !measured.Contains(api) {
					t.Errorf("gen %d %s: planted %v not measured", gen, name, api)
				}
			}
			for api := range measured {
				if !planted.Contains(api) {
					t.Errorf("gen %d %s: measured %v was never planted", gen, name, api)
				}
			}
		}
	}
}

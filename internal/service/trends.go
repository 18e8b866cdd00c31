package service

// Release-series serving: a built evolution.Series (N generations of the
// corpus, each a full study, plus precomputed cross-generation trend
// series) is held behind its own atomic pointer, separate from the main
// serving snapshot. Trend queries answer straight from the precomputed
// series; a generation selector (`?gen=`) retargets the ordinary query
// methods at one generation's study. Installing a new series bumps a
// series id that is embedded in every derived-query cache key, so stale
// entries die with the swap exactly like snapshot generations do.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/evolution"
)

// ErrNoSeries reports a trend or generation query without a resident
// release series.
var ErrNoSeries = errors.New("service: no release series resident")

// ErrBadGeneration reports a generation selector outside the series.
var ErrBadGeneration = errors.New("service: generation out of range")

// seriesState is the atomically-swapped resident series.
type seriesState struct {
	series      *evolution.Series
	id          uint64
	buildDur    time.Duration
	installedAt time.Time
}

// InstallSeries publishes a release series (usually from evolution.Build
// or evolution.Load) for trend and generation-selected queries. buildDur
// records how long the series took to build, surfaced in /metrics.
// Returns the number of generations now resident.
func (s *Service) InstallSeries(sr *evolution.Series, buildDur time.Duration) int {
	id := s.seriesInstalls.Add(1)
	s.series.Store(&seriesState{
		series:      sr,
		id:          id,
		buildDur:    buildDur,
		installedAt: time.Now(),
	})
	return sr.Generations()
}

// Series returns the resident release series, or nil.
func (s *Service) Series() *evolution.Series {
	if ss := s.series.Load(); ss != nil {
		return ss.series
	}
	return nil
}

// TrendImportanceResult answers /v1/trends/importance.
type TrendImportanceResult struct {
	Generations int                  `json:"generations"`
	Trends      []evolution.APITrend `json:"trends"`
}

// TrendCompletenessResult answers /v1/trends/completeness.
type TrendCompletenessResult struct {
	Generations int                     `json:"generations"`
	Targets     []evolution.TargetTrend `json:"targets"`
}

// TrendPathResult answers /v1/trends/path.
type TrendPathResult struct {
	Generations int                   `json:"generations"`
	PathHead    int                   `json:"path_head"`
	Trends      []evolution.PathTrend `json:"trends"`
}

// trendCtx loads the resident series state for a trend byte query.
func (s *Service) trendCtx() (*seriesState, func() string, error) {
	ss := s.series.Load()
	if ss == nil {
		return nil, nil, ErrNoSeries
	}
	// The series install id is the serving identity for trend answers:
	// a new install bumps it, retiring every derived key and ETag.
	base := fmt.Sprintf("series-%d", ss.id)
	return ss, func() string { return base }, nil
}

// TrendImportanceBytes returns per-API importance trajectories across
// the resident series: the trend for one named API, or (api == "") the
// top APIs by absolute importance drift (default 20). Trends encodes as
// [] when nothing matches: a filter that matches nothing is an answer.
func (s *Service) TrendImportanceBytes(api string, top int) (Encoded, error) {
	ss, base, err := s.trendCtx()
	if err != nil {
		return Encoded{}, err
	}
	s.trendImportanceQueries.Add(1)
	var key string
	if api != "" {
		key = fmt.Sprintf("ti|%d|a|%s", ss.id, api)
	} else {
		if top <= 0 {
			top = 20
		}
		key = fmt.Sprintf("ti|%d|t|%d", ss.id, top)
	}
	return s.fetchEncoded(s.bcache.ep(epTrends), key, base,
		func() (any, any, int, error) {
			tr := ss.series.Trends
			out := TrendImportanceResult{
				Generations: len(tr.Generations),
				Trends:      []evolution.APITrend{},
			}
			if api != "" {
				for _, row := range tr.Importance {
					if row.API == api {
						out.Trends = append(out.Trends, row)
					}
				}
				return out, nil, 200, nil
			}
			rows := append([]evolution.APITrend(nil), tr.Importance...)
			sort.SliceStable(rows, func(i, j int) bool {
				di, dj := abs(rows[i].Drift), abs(rows[j].Drift)
				if di != dj {
					return di > dj
				}
				if rows[i].Kind != rows[j].Kind {
					return rows[i].Kind < rows[j].Kind
				}
				return rows[i].API < rows[j].API
			})
			if len(rows) > top {
				rows = rows[:top]
			}
			out.Trends = append(out.Trends, rows...)
			return out, nil, 200, nil
		})
}

// TrendCompletenessBytes returns the weighted-completeness trajectory of
// every compatibility target across the series, or of the targets whose
// name contains target (case-insensitive).
func (s *Service) TrendCompletenessBytes(target string) (Encoded, error) {
	ss, base, err := s.trendCtx()
	if err != nil {
		return Encoded{}, err
	}
	s.trendCompletenessQueries.Add(1)
	return s.fetchEncoded(s.bcache.ep(epTrends), fmt.Sprintf("tc|%d|%s", ss.id, target), base,
		func() (any, any, int, error) {
			tr := ss.series.Trends
			out := TrendCompletenessResult{
				Generations: len(tr.Generations),
				Targets:     []evolution.TargetTrend{},
			}
			for _, row := range tr.Completeness {
				if target == "" || strings.Contains(strings.ToLower(row.Name), strings.ToLower(target)) {
					out.Targets = append(out.Targets, row)
				}
			}
			return out, nil, 200, nil
		})
}

// TrendPathBytes returns the greedy-path membership trends: which system
// calls moved toward or away from the head of the implementation path
// across the series. direction filters to "toward", "away", or "stable"
// (empty: all); limit caps the rows (0: all).
func (s *Service) TrendPathBytes(direction string, limit int) (Encoded, error) {
	switch direction {
	case "", "toward", "away", "stable":
	default:
		return Encoded{}, fmt.Errorf("service: unknown path trend direction %q (want toward, away, or stable)", direction)
	}
	ss, base, err := s.trendCtx()
	if err != nil {
		return Encoded{}, err
	}
	s.trendPathQueries.Add(1)
	key := fmt.Sprintf("tp|%d|%s|%d", ss.id, direction, limit)
	return s.fetchEncoded(s.bcache.ep(epTrends), key, base,
		func() (any, any, int, error) {
			tr := ss.series.Trends
			out := TrendPathResult{
				Generations: len(tr.Generations),
				PathHead:    tr.PathHead,
				Trends:      []evolution.PathTrend{},
			}
			for _, row := range tr.Path {
				if direction == "" || row.Direction == direction {
					out.Trends = append(out.Trends, row)
				}
				if limit > 0 && len(out.Trends) >= limit {
					break
				}
			}
			return out, nil, 200, nil
		})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

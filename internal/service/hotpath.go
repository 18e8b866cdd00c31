package service

// The encoded-answer read path, the service's only query surface. It
// keeps response *bytes*, not structs: a request resolves, in order,
// against (1) the per-generation hotset — precomputed answers published
// atomically alongside the snapshot swap, a plain map lookup with no
// lock at all — (2) the sharded byte-bounded cache, one per-shard mutex
// around a map probe, and (3) a singleflighted compute-and-encode that
// seeds the cache. A cold miss encodes the answer twice — the served
// copy says "cached": false, the stored copy says "cached": true — so
// first and repeat requests differ only in that flag. Served bodies are
// pinned by the golden response files in internal/httpapi/testdata.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// Encoded is one pre-encoded HTTP answer: the exact body bytes (JSON,
// two-space indent, trailing newline — writeJSON's framing), the status
// to serve them under, and a strong ETag derived from the study
// fingerprint plus the canonical query key. Immutable once built;
// holders must not mutate Body.
type Encoded struct {
	Status int
	Body   []byte
	ETag   string
}

// encPool recycles encoding buffers across misses; the cached copy is
// always a right-sized snapshot of the buffer, never the buffer itself.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeAnswer marshals v exactly like httpapi's writeJSON does
// (indented encoder, trailing newline), through a pooled buffer.
func encodeAnswer(status int, etag string, v any) (Encoded, error) {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		encPool.Put(buf)
		return Encoded{}, fmt.Errorf("service: encoding answer: %w", err)
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	encPool.Put(buf)
	return Encoded{Status: status, Body: body, ETag: etag}, nil
}

// etagFor derives the strong ETag for one (serving identity, query)
// pair: any fingerprint change — reload, snapshot push, rollback —
// changes every ETag, so If-None-Match can never revalidate stale data.
func etagFor(base, key string) string {
	h := sha256.Sum256([]byte(base + "\x00" + key))
	return `"` + hex.EncodeToString(h[:8]) + `"`
}

// studyCtx resolves the study a query runs against — the resident
// snapshot (gen < 0) or one generation of the resident series — with
// the generation value to report, the cache-key prefix that makes
// answers unique per serving identity, and the ETag base for that
// identity. The base is a func so series-generation requests only pay
// the fingerprint on cache misses.
func (s *Service) studyCtx(gen int) (*repro.Study, uint64, string, func() string, error) {
	if gen < 0 {
		snap := s.Snapshot()
		fp := snap.Meta.Fingerprint
		return snap.Study, snap.Generation,
			strconv.FormatUint(snap.Generation, 10),
			func() string { return fp }, nil
	}
	ss := s.series.Load()
	if ss == nil {
		return nil, 0, "", nil, ErrNoSeries
	}
	study := ss.series.Study(gen)
	if study == nil {
		return nil, 0, "", nil, fmt.Errorf("%w: %d (series has %d generations)",
			ErrBadGeneration, gen, ss.series.Generations())
	}
	s.generationQueries.Add(1)
	return study, uint64(gen), fmt.Sprintf("s%d.%d", ss.id, gen), study.Fingerprint, nil
}

// fetchEncoded is the byte path's spine: hotset, then sharded cache,
// then a singleflighted compute. compute returns the cold answer (what
// this first requester sees), an optional warm variant (what the cache
// stores and every later hit sees; nil when they are identical), and
// the status both serve under.
func (s *Service) fetchEncoded(ep *endpointCounters, key string, etagBase func() string,
	compute func() (cold, warm any, status int, err error)) (Encoded, error) {
	if h := s.hot.Load(); h != nil {
		if enc, ok := h.entries[key]; ok {
			s.hotsetHits.Add(1)
			return enc, nil
		}
	}
	if enc, ok := s.bcache.Get(ep, key); ok {
		return enc, nil
	}
	enc, shared, err := s.flight.Do(key, func() (Encoded, error) {
		cold, warm, status, err := compute()
		if err != nil {
			return Encoded{}, err
		}
		etag := etagFor(etagBase(), key)
		coldEnc, err := encodeAnswer(status, etag, cold)
		if err != nil {
			return Encoded{}, err
		}
		warmEnc := coldEnc
		if warm != nil {
			if warmEnc, err = encodeAnswer(status, etag, warm); err != nil {
				return Encoded{}, err
			}
		}
		s.bcache.Add(ep, key, warmEnc)
		return coldEnc, nil
	})
	if err != nil {
		return Encoded{}, err
	}
	if shared {
		s.flightShared.Add(1)
	}
	return enc, nil
}

// Answer builders shared by the compute path and the hotset, so a
// precomputed answer cannot drift from a computed one.

func buildImportance(study *repro.Study, label uint64, name string) (ImportanceResult, int) {
	res := ImportanceResult{
		Syscall:    name,
		Known:      linuxapi.SyscallByName(name) != nil,
		Importance: study.Importance(name),
		Unweighted: study.UnweightedImportance(name),
		Generation: label,
	}
	status := 200
	if !res.Known && res.Importance == 0 {
		// 404 only for names outside the syscall table, so typos are
		// distinguishable from Table 3's genuinely unused calls (200).
		status = 404
	}
	return res, status
}

func buildCompleteness(label uint64, known, unknown []string, wc float64, cached bool) CompletenessResult {
	return CompletenessResult{
		Syscalls:     len(known),
		Unknown:      unknown,
		Completeness: wc,
		Generation:   label,
		Cached:       cached,
	}
}

func buildSuggest(label uint64, known, unknown []string, sugg []repro.Suggestion, cached bool) SuggestResult {
	return SuggestResult{
		Supported:   len(known),
		Unknown:     unknown,
		Suggestions: sugg,
		Generation:  label,
		Cached:      cached,
	}
}

func buildGreedyPrefix(path []metrics.PathPoint, label uint64, n int, cached bool) GreedyPrefixResult {
	if n <= 0 || n > len(path) {
		n = len(path)
	}
	out := GreedyPrefixResult{N: n, Generation: label, Cached: cached}
	for _, pt := range path[:n] {
		out.Syscalls = append(out.Syscalls, pt.API.Name)
		out.Curve = append(out.Curve, CurvePointJSON{
			N: pt.N, Syscall: pt.API.Name,
			Importance: pt.Importance, Completeness: pt.Completeness,
		})
	}
	return out
}

func buildCompatRows(study *repro.Study) []SystemRow {
	var rows []SystemRow
	for _, r := range study.EvaluateSystems() {
		rows = append(rows, SystemRow{
			Name:              r.System.Name,
			Version:           r.System.Version,
			Supported:         r.Supported,
			Completeness:      r.Completeness,
			PaperCompleteness: r.System.PaperCompleteness,
			Suggested:         r.Suggested,
		})
	}
	return rows
}

// Canonical cache keys. They embed *every* input that shapes the
// response — the completeness and suggest keys include the unknown-name
// set because the stored bytes carry the "unknown" field.

func impKey(prefix, name string) string { return "imp|" + prefix + "|" + name }

func wcKey(prefix string, known, unknown []string) string {
	return "wc|" + prefix + "|" + setKey(known) + "|" + setKey(unknown)
}

func suggestKey(prefix string, k int, known, unknown []string) string {
	return fmt.Sprintf("sugg|%s|%d|%s|%s", prefix, k, setKey(known), setKey(unknown))
}

func pathKey(prefix string, n int) string {
	return "pathq|" + prefix + "|" + strconv.Itoa(n)
}

// ImportanceBytes reports the measured importance of one system call
// in a selected generation (gen < 0: the resident snapshot, where every
// table syscall is a hotset hit).
func (s *Service) ImportanceBytes(gen int, name string) (Encoded, error) {
	study, label, prefix, base, err := s.studyCtx(gen)
	if err != nil {
		return Encoded{}, err
	}
	return s.fetchEncoded(s.bcache.ep(epImportance), impKey(prefix, name), base,
		func() (any, any, int, error) {
			res, status := buildImportance(study, label, name)
			return res, nil, status, nil
		})
}

// CompletenessBytes evaluates the weighted completeness of a supported
// syscall set (§2.2) in a selected generation.
func (s *Service) CompletenessBytes(gen int, names []string) (Encoded, error) {
	study, label, prefix, base, err := s.studyCtx(gen)
	if err != nil {
		return Encoded{}, err
	}
	known, unknown := linuxapi.SplitSyscalls(names)
	return s.fetchEncoded(s.bcache.ep(epCompleteness), wcKey(prefix, known, unknown), base,
		func() (any, any, int, error) {
			wc := study.WeightedCompleteness(known)
			return buildCompleteness(label, known, unknown, wc, false),
				buildCompleteness(label, known, unknown, wc, true), 200, nil
		})
}

// SuggestBytes returns the k most valuable system calls missing from the
// supported set (default 5), with the completeness reached after each
// addition, in a selected generation.
func (s *Service) SuggestBytes(gen int, supported []string, k int) (Encoded, error) {
	if k <= 0 {
		k = 5
	}
	study, label, prefix, base, err := s.studyCtx(gen)
	if err != nil {
		return Encoded{}, err
	}
	known, unknown := linuxapi.SplitSyscalls(supported)
	return s.fetchEncoded(s.bcache.ep(epSuggest), suggestKey(prefix, k, known, unknown), base,
		func() (any, any, int, error) {
			sugg := study.SuggestNext(known, k)
			return buildSuggest(label, known, unknown, sugg, false),
				buildSuggest(label, known, unknown, sugg, true), 200, nil
		})
}

// PathBytes returns the first n steps of the greedy syscall path
// (Figure 3) in a selected generation. Full-path requests (n <= 0, or n
// at least the path length) normalize onto the hotset's precomputed
// full answer.
func (s *Service) PathBytes(gen, n int) (Encoded, error) {
	study, label, prefix, base, err := s.studyCtx(gen)
	if err != nil {
		return Encoded{}, err
	}
	if n < 0 {
		n = 0
	}
	if h := s.hot.Load(); h != nil && h.prefix == prefix && n >= h.pathLen {
		n = 0 // same response bytes as the full path
	}
	return s.fetchEncoded(s.bcache.ep(epPath), pathKey(prefix, n), base,
		func() (any, any, int, error) {
			path := study.GreedyPath()
			return buildGreedyPrefix(path, label, n, false),
				buildGreedyPrefix(path, label, n, true), 200, nil
		})
}

// FootprintBytes returns a package's measured syscall footprint in a
// selected generation.
func (s *Service) FootprintBytes(gen int, pkg string) (Encoded, error) {
	study, label, prefix, base, err := s.studyCtx(gen)
	if err != nil {
		return Encoded{}, err
	}
	if study.Core().Input.Footprints[pkg] == nil {
		return Encoded{}, fmt.Errorf("%w: %q", ErrUnknownPackage, pkg)
	}
	return s.fetchEncoded(s.bcache.ep(epFootprint), "fp|"+prefix+"|"+pkg, base,
		func() (any, any, int, error) {
			return FootprintResult{
				Package:    pkg,
				Syscalls:   study.PackageFootprint(pkg),
				Generation: label,
			}, nil, 200, nil
		})
}

// SeccompBytes compiles a verified seccomp-BPF sandbox policy for a
// package's footprint on the resident snapshot.
func (s *Service) SeccompBytes(pkg, denyName string) (Encoded, error) {
	deny, denyLabel, err := ParseDenyAction(denyName)
	if err != nil {
		return Encoded{}, err
	}
	study, label, prefix, base, err := s.studyCtx(-1)
	if err != nil {
		return Encoded{}, err
	}
	if study.Core().Input.Footprints[pkg] == nil {
		return Encoded{}, fmt.Errorf("%w: %q", ErrUnknownPackage, pkg)
	}
	return s.fetchEncoded(s.bcache.ep(epSeccomp), "sec|"+prefix+"|"+denyLabel+"|"+pkg, base,
		func() (any, any, int, error) {
			_, prog, err := study.SeccompPolicy(pkg, deny)
			if err != nil {
				return nil, nil, 0, err
			}
			res := SeccompResult{
				Package:      pkg,
				DenyAction:   denyLabel,
				Syscalls:     len(study.PackageFootprint(pkg)),
				Instructions: len(prog),
				Listing:      prog.Disassemble(),
				Generation:   label,
			}
			warm := res
			warm.Cached = true
			return res, warm, 200, nil
		})
}

// CompatSystemsBytes evaluates every modeled Linux compatibility layer
// against the resident snapshot (Table 6): a hotset hit.
func (s *Service) CompatSystemsBytes() (Encoded, error) {
	study, label, prefix, base, err := s.studyCtx(-1)
	if err != nil {
		return Encoded{}, err
	}
	return s.fetchEncoded(s.bcache.ep(epCompat), "compatq|"+prefix, base,
		func() (any, any, int, error) {
			rows := buildCompatRows(study)
			cold := CompatSystemsResult{Systems: rows, Generation: label}
			warm := cold
			warm.Cached = true
			return cold, warm, 200, nil
		})
}

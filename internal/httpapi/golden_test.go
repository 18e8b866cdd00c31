package httpapi

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/stubplan"
)

// goldenRequest is one request of the pinned response set. bare
// requests go to a server with no release series resident.
type goldenRequest struct {
	name         string
	bare         bool
	method, path string
	body         string
	status       int
}

// The pinned request set, in three groups, one per test. Each group is
// replayed twice on its own fresh server — a cold pass, then a warm
// pass — because the "cached" flag in a body flips between the two.
// bare requests go to a server with no release series resident.

// queryGoldenRequests covers every snapshot query route and its error
// envelopes.
var queryGoldenRequests = []goldenRequest{
	{name: "importance-read", method: "GET", path: "/v1/importance/read", status: 200},
	{name: "importance-unused", method: "GET", path: "/v1/importance/lookup_dcookie", status: 200},
	{name: "importance-unknown", method: "GET", path: "/v1/importance/no_such_call", status: 404},
	{name: "completeness", method: "POST", path: "/v1/completeness", body: `{"syscalls":["read","write","openat","not_a_syscall"]}`, status: 200},
	{name: "completeness-bad-json", method: "POST", path: "/v1/completeness", body: `{not json`, status: 400},
	{name: "suggest", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write"],"k":4}`, status: 200},
	{name: "suggest-default-k", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"]}`, status: 200},
	{name: "path-prefix", method: "GET", path: "/v1/path?n=7", status: 200},
	{name: "path", method: "GET", path: "/v1/path", status: 200},
	{name: "path-bad-n", method: "GET", path: "/v1/path?n=bogus", status: 400},
	{name: "footprint", method: "GET", path: "/v1/footprint/sed", status: 200},
	{name: "footprint-unknown", method: "GET", path: "/v1/footprint/no-such-package", status: 404},
	{name: "seccomp-kill", method: "GET", path: "/v1/seccomp/sed?deny=kill", status: 200},
	{name: "seccomp-errno", method: "GET", path: "/v1/seccomp/sed", status: 200},
	{name: "seccomp-bad-deny", method: "GET", path: "/v1/seccomp/sed?deny=bogus", status: 400},
	{name: "seccomp-unknown", method: "GET", path: "/v1/seccomp/no-such-package", status: 404},
	{name: "compat-systems", method: "GET", path: "/v1/compat/systems", status: 200},
	{name: "suggest-k1", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":1}`, status: 200},
	{name: "suggest-k2", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":2}`, status: 200},
	{name: "suggest-k3", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":3}`, status: 200},
	{name: "suggest-k4", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":4}`, status: 200},
	{name: "suggest-k5", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":5}`, status: 200},
	{name: "suggest-k6", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":6}`, status: 200},
	{name: "suggest-k7", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":7}`, status: 200},
	{name: "suggest-k8", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":8}`, status: 200},
	{name: "suggest-k9", method: "POST", path: "/v1/suggest", body: `{"supported":["read","write","openat","close"],"k":9}`, status: 200},
}

// trendGoldenRequests covers the three trend routes, the generation
// selector against the small series, and the no-series 404s.
var trendGoldenRequests = []goldenRequest{
	{name: "trends-importance-top", method: "GET", path: "/v1/trends/importance?top=5", status: 200},
	{name: "trends-importance-api", method: "GET", path: "/v1/trends/importance?api=open", status: 200},
	{name: "trends-completeness", method: "GET", path: "/v1/trends/completeness", status: 200},
	{name: "trends-completeness-target", method: "GET", path: "/v1/trends/completeness?target=graphene", status: 200},
	{name: "trends-path", method: "GET", path: "/v1/trends/path", status: 200},
	{name: "trends-path-toward", method: "GET", path: "/v1/trends/path?direction=toward&limit=3", status: 200},
	{name: "trends-path-bad-direction", method: "GET", path: "/v1/trends/path?direction=sideways", status: 400},
	{name: "gen-importance", method: "GET", path: "/v1/importance/open?gen=1", status: 200},
	{name: "gen-completeness", method: "POST", path: "/v1/completeness?gen=1", body: `{"syscalls":["read","write","openat"]}`, status: 200},
	{name: "gen-suggest", method: "POST", path: "/v1/suggest?gen=0", body: `{"supported":["read","write"],"k":3}`, status: 200},
	{name: "gen-path", method: "GET", path: "/v1/path?gen=0&n=5", status: 200},
	{name: "gen-footprint", method: "GET", path: "/v1/footprint/bash?gen=2", status: 200},
	{name: "gen-footprint-unknown", method: "GET", path: "/v1/footprint/no-such-package?gen=0", status: 404},
	{name: "gen-out-of-range", method: "GET", path: "/v1/importance/open?gen=99", status: 400},
	{name: "gen-bad-syntax", method: "GET", path: "/v1/path?gen=abc", status: 400},
	{name: "no-series-trends-importance", bare: true, method: "GET", path: "/v1/trends/importance", status: 404},
	{name: "no-series-trends-completeness", bare: true, method: "GET", path: "/v1/trends/completeness", status: 404},
	{name: "no-series-trends-path", bare: true, method: "GET", path: "/v1/trends/path", status: 404},
	{name: "no-series-gen", bare: true, method: "GET", path: "/v1/importance/read?gen=0", status: 404},
}

// planGoldenRequests covers the stub-aware plan route: answers for
// single and combined systems, and its error envelopes.
var planGoldenRequests = []goldenRequest{
	{name: "plan-graphene", method: "GET", path: "/v1/compat/plan?system=graphene", status: 200},
	{name: "plan-graphene-sched", method: "GET", path: "/v1/compat/plan?system=graphene%2Bsched", status: 200},
	{name: "plan-freebsd-emu", method: "GET", path: "/v1/compat/plan?system=freebsd-emu", status: 200},
	{name: "plan-user-mode-linux", method: "GET", path: "/v1/compat/plan?system=user-mode-linux", status: 200},
	{name: "plan-l4linux", method: "GET", path: "/v1/compat/plan?system=l4linux", status: 200},
	{name: "plan-missing-system", method: "GET", path: "/v1/compat/plan", status: 400},
	{name: "plan-unknown-system", method: "GET", path: "/v1/compat/plan?system=z-os", status: 404},
}

// goldenPasses names the two replays of a request group.
var goldenPasses = []string{"cold", "warm"}

// goldenFile is where one request's body for one pass is pinned:
// <name>.json holds the cold body, and <name>.warm.json exists only for
// the answers whose warm body differs from it.
func goldenFile(req goldenRequest, pass string) string {
	cold := filepath.Join("testdata", "golden", req.name+".json")
	if pass == "warm" {
		warm := filepath.Join("testdata", "golden", req.name+".warm.json")
		if _, err := os.Stat(warm); err == nil {
			return warm
		}
	}
	return cold
}

var (
	goldenOnce  sync.Once
	goldenStudy *repro.Study
	goldenCache *repro.AnalysisCache
	goldenErr   error
)

// goldenServices builds the fixture the golden bodies were recorded
// against: a 16-package study whose verdict cache is pre-filled (so the
// first plan query replays verdicts instead of emulating), with the
// shared 3-generation release series installed, plus a second service
// over the same study with no series resident. The study and its cache
// are built once and shared; each call returns fresh services, so each
// test starts with cold answer caches.
func goldenServices(t *testing.T) (full, bare *service.Service) {
	t.Helper()
	goldenOnce.Do(func() {
		dir, err := os.MkdirTemp("", "httpapi-golden-*")
		if err != nil {
			goldenErr = err
			return
		}
		if goldenCache, goldenErr = repro.OpenAnalysisCache(dir); goldenErr != nil {
			return
		}
		goldenStudy, goldenErr = repro.NewStudyCached(repro.Config{Packages: 16, Installations: 200000, Seed: 41}, goldenCache)
		if goldenErr == nil {
			stubplan.BuildMatrix(goldenStudy.Core(), stubplan.Options{Cache: goldenCache})
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	_, reference := trendsAPI(t) // forces the shared series fixture to exist
	full = service.New(goldenStudy, "golden", service.Config{Cache: goldenCache})
	full.InstallSeries(reference.Series(), time.Second)
	bare = service.New(goldenStudy, "golden-bare", service.Config{})
	return full, bare
}

// The golden bodies are the byte path's answers, recorded while the
// struct-encoding ("legacy") read path still served beside it. The
// legacy path served the same bytes for every request and pass except
// the cold pass of the hotset answers (the compat table, and the plans
// published by the first plan query), which the byte path holds warm
// from birth: there the legacy path said "cached": false and served
// the pinned body from its second request on. So these three tests
// keep the legacy path's contract now that the byte path is the only
// one: every response in a group matches, byte for byte (request ids
// normalized), the body pinned in testdata/golden.

// TestByteHandlersMatchLegacy pins the snapshot query routes.
func TestByteHandlersMatchLegacy(t *testing.T) {
	replayGolden(t, queryGoldenRequests)
}

// TestByteHandlersMatchLegacyTrends pins the trend routes and the
// generation selector.
func TestByteHandlersMatchLegacyTrends(t *testing.T) {
	replayGolden(t, trendGoldenRequests)
}

// TestPlanBytesMatchLegacy pins /v1/compat/plan.
func TestPlanBytesMatchLegacy(t *testing.T) {
	replayGolden(t, planGoldenRequests)
}

// replayGolden sends reqs twice, cold then warm, to one fresh pair of
// servers and checks each status and body against its golden file.
func replayGolden(t *testing.T, reqs []goldenRequest) {
	t.Helper()
	fullSvc, bareSvc := goldenServices(t)
	full := httptest.NewServer(New(fullSvc, Options{RequestTimeout: time.Minute}))
	defer full.Close()
	bare := httptest.NewServer(New(bareSvc, Options{RequestTimeout: time.Minute}))
	defer bare.Close()

	for _, pass := range goldenPasses {
		for _, req := range reqs {
			ts := full
			if req.bare {
				ts = bare
			}
			code, body := fetch(t, ts, req.method, req.path, req.body)
			if code != req.status {
				t.Errorf("%s pass: %s %s = %d, want %d", pass, req.method, req.path, code, req.status)
			}
			want, err := os.ReadFile(goldenFile(req, pass))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s pass: %s %s body differs from %s:\n got %.300q\nwant %.300q",
					pass, req.method, req.path, goldenFile(req, pass), body, want)
			}
		}
	}
}

package loadgen

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
)

// TestBaselineServesTheAPIBodies keeps the serving gates honest: the
// baseline read path must answer its five routes with exactly the bytes
// the served API writes (cold against cold, warm against warm), so the
// gates compare two ways of doing the same work.
func TestBaselineServesTheAPIBodies(t *testing.T) {
	study, err := repro.NewStudy(repro.Config{Packages: 40, Installations: 100000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(study)
	svc := service.New(study, "baseline-test", service.Config{})
	pkg := study.Packages()[1]

	cases := []struct {
		method, path, body string
		served             func() (service.Encoded, error)
		warmFromBirth      bool // a hotset answer: served warm on first ask
	}{
		{"GET", "/v1/importance/read", "", func() (service.Encoded, error) { return svc.ImportanceBytes(-1, "read") }, false},
		{"GET", "/v1/importance/no_such_call", "", func() (service.Encoded, error) { return svc.ImportanceBytes(-1, "no_such_call") }, false},
		{"GET", "/v1/footprint/" + pkg, "", func() (service.Encoded, error) { return svc.FootprintBytes(-1, pkg) }, false},
		{"POST", "/v1/completeness", `{"syscalls":["write","read","openat","bogus"]}`, func() (service.Encoded, error) {
			return svc.CompletenessBytes(-1, []string{"write", "read", "openat", "bogus"})
		}, false},
		{"POST", "/v1/suggest", `{"supported":["read","write"],"k":3}`, func() (service.Encoded, error) {
			return svc.SuggestBytes(-1, []string{"read", "write"}, 3)
		}, false},
		{"GET", "/v1/path?n=7", "", func() (service.Encoded, error) { return svc.PathBytes(-1, 7) }, false},
		{"GET", "/v1/path", "", func() (service.Encoded, error) { return svc.PathBytes(-1, 0) }, true},
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			rec := httptest.NewRecorder()
			base.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			want, err := c.served()
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 && c.warmFromBirth {
				continue
			}
			if rec.Code != want.Status || !bytes.Equal(rec.Body.Bytes(), want.Body) {
				t.Errorf("pass %d %s %s: baseline %d %.200q, served %d %.200q",
					pass, c.method, c.path, rec.Code, rec.Body.Bytes(), want.Status, want.Body)
			}
		}
	}
	rec := httptest.NewRecorder()
	base.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/footprint/no-such-package", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown package = %d, want 404", rec.Code)
	}
}

package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

var (
	eqOnce  sync.Once
	eqStudy *repro.Study
	eqErr   error
)

// eqServer builds a fresh server over the shared study. A fresh service
// per call, so cache temperature is controlled by the test, not by
// ordering.
func eqServer(t *testing.T) *httptest.Server {
	t.Helper()
	eqOnce.Do(func() {
		eqStudy, eqErr = repro.NewStudy(repro.Config{Packages: 100, Installations: 150000, Seed: 31})
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	svc := service.New(eqStudy, "equivalence", service.Config{})
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: time.Minute}))
	t.Cleanup(ts.Close)
	return ts
}

// requestIDPattern matches the per-request nonce in error envelopes;
// it is random on every request, so body comparisons normalize it out.
var requestIDPattern = regexp.MustCompile(`"request_id": "r-[0-9a-f]+"`)

// fetch performs one request and returns status plus body bytes, with
// the error envelope's random request id normalized.
func fetch(t *testing.T, ts *httptest.Server, method, path string, body string) (int, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	} else {
		req, err = http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, requestIDPattern.ReplaceAll(raw, []byte(`"request_id": "r-X"`))
}

// TestETagRoundTrip pins conditional-request behavior on the byte
// path: a response carries a strong ETag; replaying it in
// If-None-Match yields 304 with an empty body; a different validator
// yields the full answer again.
func TestETagRoundTrip(t *testing.T) {
	hot := eqServer(t)

	resp, err := hot.Client().Get(hot.URL + "/v1/importance/read")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || len(body) == 0 {
		t.Fatalf("first response = %d, ETag %q, %d bytes", resp.StatusCode, etag, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got == "" {
		t.Error("no Content-Length on byte-path response")
	}

	for _, match := range []string{etag, "*", "W/" + etag, `"bogus", ` + etag} {
		req, _ := http.NewRequest("GET", hot.URL+"/v1/importance/read", nil)
		req.Header.Set("If-None-Match", match)
		resp, err := hot.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(raw) != 0 {
			t.Errorf("If-None-Match %q = %d with %d bytes, want 304 empty", match, resp.StatusCode, len(raw))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
	}

	req, _ := http.NewRequest("GET", hot.URL+"/v1/importance/read", nil)
	req.Header.Set("If-None-Match", `"0000000000000000"`)
	resp, err = hot.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, body) {
		t.Errorf("stale validator = %d with %d bytes, want the full 200 answer", resp.StatusCode, len(raw))
	}

	// Error answers must not 304: a 404's validator is not a validator.
	req, _ = http.NewRequest("GET", hot.URL+"/v1/importance/no_such_call", nil)
	resp, err = hot.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	notFoundETag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if notFoundETag != "" {
		req, _ = http.NewRequest("GET", hot.URL+"/v1/importance/no_such_call", nil)
		req.Header.Set("If-None-Match", notFoundETag)
		resp, err = hot.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotModified {
			t.Error("404 answer revalidated to 304")
		}
	}
}

// TestPerEndpointCacheMetrics drives labeled traffic through the byte
// path and checks /metrics exports the per-endpoint cache series, the
// hotset gauges, and the singleflight counter.
func TestPerEndpointCacheMetrics(t *testing.T) {
	hot := eqServer(t)

	// importance: hotset hit. footprint: byte-cache miss then hit.
	fetch(t, hot, "GET", "/v1/importance/read", "")
	pkg := eqStudy.Packages()[0]
	fetch(t, hot, "GET", "/v1/footprint/"+pkg, "")
	fetch(t, hot, "GET", "/v1/footprint/"+pkg, "")

	_, raw := fetch(t, hot, "GET", "/metrics", "")
	text := string(raw)
	for _, want := range []string{
		`apiserved_cache_hits_total{endpoint="footprint"} 1`,
		`apiserved_cache_misses_total{endpoint="footprint"} 1`,
		`apiserved_cache_hits_total{endpoint="importance"} 0`,
		`apiserved_cache_evictions_total{endpoint="path"} 0`,
		"apiserved_cache_bytes",
		"apiserved_cache_capacity_bytes",
		"apiserved_cache_byte_entries",
		"apiserved_cache_oversize_total 0",
		"apiserved_hotset_hits_total 1",
		"apiserved_hotset_bytes",
		"apiserved_hotset_entries",
		"apiserved_singleflight_shared_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

package httpapi

// Trend endpoints over the resident release series (see
// internal/evolution): /v1/trends/importance, /v1/trends/completeness
// and /v1/trends/path answer from the precomputed cross-generation trend
// series, and a `?gen=` selector on the ordinary query endpoints
// retargets them at one generation's study.

import (
	"net/http"
	"strconv"
)

// genParam parses the optional `?gen=` generation selector: -1 (resident
// snapshot) when absent.
func genParam(r *http.Request) (int, error) {
	s := r.URL.Query().Get("gen")
	if s == "" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, &badParamError{param: "gen", value: s}
	}
	return v, nil
}

// positiveParam parses an optional non-negative integer query parameter,
// returning 0 when absent.
func positiveParam(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, &badParamError{param: name, value: s}
	}
	return v, nil
}

// badParamError is an unparsable query parameter (always a 400).
type badParamError struct{ param, value string }

func (e *badParamError) Error() string {
	return "bad " + e.param + " " + strconv.Quote(e.value)
}

func (a *API) handleTrendImportance(w http.ResponseWriter, r *http.Request) {
	top, err := positiveParam(r, "top")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.TrendImportanceBytes(r.URL.Query().Get("api"), top)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleTrendCompleteness(w http.ResponseWriter, r *http.Request) {
	enc, err := a.svc.TrendCompletenessBytes(r.URL.Query().Get("target"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleTrendPath(w http.ResponseWriter, r *http.Request) {
	limit, err := positiveParam(r, "limit")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.TrendPathBytes(r.URL.Query().Get("direction"), limit)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/service"
)

// replica is the serving tier under test: a service.Service behind
// httpapi on a loopback listener inside this process, the way apiload
// serves in-process, with the snapshot admin routes mounted.
type replica struct {
	svc    *service.Service
	url    string
	load   *http.Client // query load: at most nproc connections
	admin  *http.Client // the publisher's own connection for pushes
	cancel context.CancelFunc
	done   chan error
}

func startReplica(study *repro.Study, dir string, wrap func(http.Handler) http.Handler) (*replica, error) {
	svc := service.New(study, "perfbench", service.DefaultConfig())
	mgr, err := service.NewSnapshotManager(svc, filepath.Join(dir, "snapshots"))
	if err != nil {
		return nil, err
	}
	// Admission limits as cmd/apiserved sets them by default.
	api := httpapi.New(svc, httpapi.Options{
		Snapshots: mgr, MaxInFlight: 256, MaxQueue: 512, QueueWait: time.Second,
	})
	var handler http.Handler = api
	if wrap != nil {
		handler = wrap(api)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &replica{
		svc: svc,
		url: "http://" + ln.Addr().String(),
		load: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression: true,
		}},
		admin: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { r.done <- httpapi.Serve(ctx, ln, handler, 5*time.Second, nil) }()
	return r, nil
}

// close stops the server and waits for it to drain.
func (r *replica) close() error {
	r.cancel()
	err := <-r.done
	r.load.CloseIdleConnections()
	r.admin.CloseIdleConnections()
	return err
}

// do issues one request on client c and returns its status and body.
func (r *replica) do(c *http.Client, req loadgen.Request) (int, []byte, error) {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method, r.url+req.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if req.ContentType != "" {
		hr.Header.Set("Content-Type", req.ContentType)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// waitGeneration polls an importance query until it answers 200 from
// generation gen: the "first 200 on the new generation".
func (r *replica) waitGeneration(gen uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, body, err := r.do(r.load, loadgen.Request{Method: "GET", Path: "/v1/importance/read"})
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			var v struct {
				Generation uint64 `json:"generation"`
			}
			if err := json.Unmarshal(body, &v); err != nil {
				return fmt.Errorf("first 200: %w", err)
			}
			if v.Generation == gen {
				return nil
			}
		}
	}
	return fmt.Errorf("generation %d never served", gen)
}

// push installs snapshot bytes through POST /v1/snapshot.
func (r *replica) push(data []byte) error {
	status, body, err := r.do(r.admin, loadgen.Request{
		Method: "POST", Path: "/v1/snapshot", Body: data, ContentType: "application/octet-stream",
	})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("snapshot push: status %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// serveMix is loadgen.DefaultMix restricted to the query endpoints a
// snapshot-restored replica serves (trends need a resident release
// series, plans an emulation matrix); their weight goes to the greedy
// path endpoint.
func serveMix() loadgen.Mix {
	return loadgen.Mix{
		loadgen.EpImportance:   27,
		loadgen.EpFootprint:    22,
		loadgen.EpCompleteness: 20,
		loadgen.EpSuggest:      13,
		loadgen.EpAnalyze:      10,
		loadgen.EpPath:         8,
	}
}

// tailShare is the share of completeness and suggest requests whose
// syscall set is drawn uniformly at random instead of as an
// importance-ordered prefix: such sets are effectively unique, so these
// requests miss the byte cache by construction.
const tailShare = 0.10

// stream is the seeded request sequence: loadgen's generator plus the
// long tail of parameter sets.
type stream struct {
	gen      *loadgen.Generator
	rng      *rand.Rand
	syscalls []string
	seq      int64
}

func newStream(p *loadgen.Profile, seed int64) (*stream, error) {
	g, err := loadgen.NewGenerator(p, serveMix(), seed)
	if err != nil {
		return nil, err
	}
	return &stream{gen: g, rng: rand.New(rand.NewSource(seed ^ 0x7a11)), syscalls: p.Syscalls}, nil
}

type arrival struct {
	seq int64
	req loadgen.Request
	due time.Time
}

func (s *stream) next() arrival {
	s.seq++
	a := arrival{seq: s.seq, req: s.gen.Next()}
	ep := a.req.Endpoint
	if (ep == loadgen.EpCompleteness || ep == loadgen.EpSuggest) && s.rng.Float64() < tailShare {
		perm := s.rng.Perm(len(s.syscalls))[:1+s.rng.Intn(len(s.syscalls))]
		names := make([]string, len(perm))
		for i, j := range perm {
			names[i] = s.syscalls[j]
		}
		var body []byte
		if ep == loadgen.EpCompleteness {
			body, _ = json.Marshal(map[string]any{"syscalls": names})
		} else {
			body, _ = json.Marshal(map[string]any{"supported": names, "k": 1 + s.rng.Intn(8)})
		}
		a.req.Body = body
	}
	return a
}

// answers keeps every distinct (request, response body) pair seen, with
// its count, for the oracle to check after the timed phase.
type answers struct {
	seed maphash.Seed
	mu   sync.Mutex
	m    map[uint64][]*answer
}

type answer struct {
	req   loadgen.Request
	body  []byte
	count int
}

func newAnswers() *answers {
	return &answers{seed: maphash.MakeSeed(), m: make(map[uint64][]*answer)}
}

func (a *answers) add(req loadgen.Request, body []byte) {
	var h maphash.Hash
	h.SetSeed(a.seed)
	h.WriteString(req.Path)
	h.WriteByte(0)
	h.Write(req.Body)
	h.WriteByte(0)
	h.Write(body)
	k := h.Sum64()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, x := range a.m[k] {
		if x.req.Path == req.Path && bytes.Equal(x.req.Body, req.Body) && bytes.Equal(x.body, body) {
			x.count++
			return
		}
	}
	a.m[k] = append(a.m[k], &answer{req: req, body: body, count: 1})
}

// stageResult is one open-loop stage at a fixed arrival rate.
type stageResult struct {
	rate       float64
	lat        samples // ms from each request's due instant
	byEndpoint map[string]samples
	late       samples // ms the pacer ran behind each due instant
	sent       int
	failed     int
	shed       int
	// backlog1 and backlog2 are the mean number of requests outstanding
	// at the arrivals of the stage's first and second half.
	backlog1, backlog2 float64
	// paced is how long the pacer took to issue every arrival.
	paced    time.Duration
	requests []arrival
	errs     []string
}

// stageOpts configures one stage.
type stageOpts struct {
	rate       float64
	dur        time.Duration
	keepStream bool // keep the arrivals for a direct replay
}

// runStage drives the replica at a fixed rate for a fixed time with an
// open loop: one pacer enqueues each arrival at its due instant, nproc
// workers issue them, and every latency is measured from the due
// instant, so queueing behind a stall is charged to the requests that
// waited.
func (e *env) runStage(o stageOpts) stageResult {
	// Every stage starts with the heap collected: in deployment the
	// publisher is another process, so the garbage its builds and
	// snapshot pushes leave here must not be collected during a stage.
	runtime.GC()
	res := stageResult{rate: o.rate, byEndpoint: map[string]samples{}}
	total := int(o.rate * o.dur.Seconds())
	if total < 1 {
		total = 1
	}
	ch := make(chan arrival, total) // sized to every arrival of the stage
	start := time.Now()
	var mu sync.Mutex
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				h := e.tr.begin("httpapi."+a.req.Endpoint, -1, a.seq)
				status, body, err := e.rep.do(e.rep.load, a.req)
				e.tr.end(h)
				ms := float64(time.Since(a.due)) / float64(time.Millisecond)
				ok := err == nil && status == http.StatusOK
				if ok {
					e.answers.add(a.req, body)
				}
				completed.Add(1)
				mu.Lock()
				res.lat = append(res.lat, ms)
				res.byEndpoint[a.req.Endpoint] = append(res.byEndpoint[a.req.Endpoint], ms)
				if !ok {
					res.failed++
					if status == http.StatusTooManyRequests {
						res.shed++
					}
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("%s %s: status %d err %v", a.req.Method, a.req.Path, status, err))
					}
				}
				mu.Unlock()
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / o.rate)
	var outstanding [2]float64
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		a := e.stream.next()
		a.due = due
		res.late = append(res.late, float64(time.Since(due))/float64(time.Millisecond))
		if o.keepStream {
			res.requests = append(res.requests, a)
		}
		ch <- a
		outstanding[2*i/total] += float64(int64(i+1) - completed.Load())
	}
	res.paced = time.Since(start)
	res.backlog1 = outstanding[0] / float64(total/2)
	res.backlog2 = outstanding[1] / float64(total-total/2)
	close(ch)
	wg.Wait()
	res.sent = total
	return res
}

// meetsSLO reports whether a ladder stage holds the latency limit with
// no failures and no growing backlog: the pacer kept to its schedule,
// and the mean number of requests outstanding in the stage's second half
// exceeds the first half's by less than 150 ms of arrivals. A slow
// request or a short stall of the machine raises the backlog briefly and
// barely moves either mean; a rate above capacity grows it through the
// whole stage.
func (s stageResult) meetsSLO(limitMs float64) (bool, string) {
	switch {
	case s.failed > 0:
		return false, fmt.Sprintf("%d failed", s.failed)
	case s.lat.quantile(0.99) > limitMs:
		return false, fmt.Sprintf("p99 %.1f ms over %g ms", s.lat.quantile(0.99), limitMs)
	case s.late.quantile(0.99) > limitMs:
		return false, fmt.Sprintf("pacer p99 lateness %.1f ms over %g ms", s.late.quantile(0.99), limitMs)
	case s.backlog2-s.backlog1 > s.rate*0.150:
		return false, fmt.Sprintf("mean backlog grew from %.1f to %.1f", s.backlog1, s.backlog2)
	}
	return true, ""
}

// replayDirect issues the same requests as direct calls on the service,
// one at a time, and returns per-endpoint latencies in ms.
func (e *env) replayDirect(reqs []arrival) (map[string]samples, error) {
	out := map[string]samples{}
	ctx := context.Background()
	for _, a := range reqs {
		var err error
		t0 := time.Now()
		switch a.req.Endpoint {
		case loadgen.EpImportance:
			_, err = e.rep.svc.ImportanceBytes(-1, strings.TrimPrefix(a.req.Path, "/v1/importance/"))
		case loadgen.EpFootprint:
			_, err = e.rep.svc.FootprintBytes(-1, strings.TrimPrefix(a.req.Path, "/v1/footprint/"))
		case loadgen.EpCompleteness:
			var b struct{ Syscalls []string }
			if err = json.Unmarshal(a.req.Body, &b); err == nil {
				_, err = e.rep.svc.CompletenessBytes(-1, b.Syscalls)
			}
		case loadgen.EpSuggest:
			var b struct {
				Supported []string
				K         int
			}
			if err = json.Unmarshal(a.req.Body, &b); err == nil {
				_, err = e.rep.svc.SuggestBytes(-1, b.Supported, b.K)
			}
		case loadgen.EpPath:
			n := 0
			if _, q, ok := strings.Cut(a.req.Path, "?n="); ok {
				n, err = strconv.Atoi(q)
			}
			if err == nil {
				_, err = e.rep.svc.PathBytes(-1, n)
			}
		case loadgen.EpAnalyze:
			_, err = e.rep.svc.Analyze(ctx, "loadgen.bin", a.req.Body)
		default:
			err = errors.New("unknown endpoint " + a.req.Endpoint)
		}
		if err != nil {
			return nil, fmt.Errorf("direct %s: %w", a.req.Path, err)
		}
		out[a.req.Endpoint] = append(out[a.req.Endpoint], float64(time.Since(t0))/float64(time.Millisecond))
	}
	return out, nil
}

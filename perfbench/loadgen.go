package main

// The load generator is open loop: arrival i is due at start + i/rate,
// whatever happened to earlier arrivals, and its latency is measured from
// that due time, so a stall is charged to every request it delays. The
// sending side has a fixed number of connections; when all are busy,
// arrivals wait and the wait shows as lateness. An arrival still unsent
// when the phase's hard stop passes is counted as missed.

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"retrodns/internal/obsv"
	"retrodns/internal/serve"
)

// conns is the number of client connections: the box has 2 CPUs, shared
// by the load generator and the server.
const conns = 2

// spanHeader carries the client span id, which is also the request id, to
// the handler wrapper.
const spanHeader = "X-Perfbench-Span"

// mix picks request paths: zipf-popular domain lookups for most arrivals,
// small fixed shares for the singleton endpoints. The endpoint of arrival
// i follows a fixed cycle, so every run of cycle arrivals has the same
// endpoint mix whatever the seed; the seed picks the cycle's phase and the
// domains. /v1/healthz is left out: its body carries the snapshot's age,
// so it cannot be checked byte for byte.
type mix struct {
	seed  uint64
	paths []string  // domain paths by popularity rank, then the singletons
	cdf   []float64 // zipf CDF over the domain ranks
	nDom  int
}

// mixCycle is the length of the endpoint cycle; the singleton shares
// below are counts per cycle.
const mixCycle = 2000

// singletonShares are the non-domain endpoints' arrivals per mixCycle.
// /v1/patterns/stable lists every stable domain (about 5 MB at 200k
// domains, some 20 ms to send and read), so it comes once a cycle.
var singletonShares = []struct {
	path  string
	count int
}{
	{"/v1/shortlist", 60},
	{"/v1/funnel", 60},
	{"/v1/patterns/transient", 20},
	{"/v1/patterns/transition", 20},
	{"/v1/patterns/noisy", 20},
	{"/v1/patterns/T1", 10},
	{"/v1/patterns/T2", 8},
	{"/v1/patterns/stable", 1},
}

// zipfS is the popularity exponent of domain lookups.
const zipfS = 1.1

func newMix(seed int64, domains []string) *mix {
	m := &mix{seed: uint64(seed), nDom: len(domains), cdf: make([]float64, len(domains))}
	for _, d := range domains {
		m.paths = append(m.paths, "/v1/domain/"+d)
	}
	for _, s := range singletonShares {
		m.paths = append(m.paths, s.path)
	}
	var sum float64
	for r := range domains {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		m.cdf[r] = sum
	}
	for r := range m.cdf {
		m.cdf[r] /= sum
	}
	return m
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns the path index of arrival i. The cycle slot is i times a
// stride prime to mixCycle, so the singletons spread through the cycle
// instead of arriving in runs.
func (m *mix) pick(i uint64) int {
	slot := int((i*1237 + splitmix(m.seed)) % mixCycle)
	for k, s := range singletonShares {
		if slot < s.count {
			return m.nDom + k
		}
		slot -= s.count
	}
	u := float64(splitmix(m.seed*0x100000001b3^i)>>11) / (1 << 53)
	return min(sort.SearchFloat64s(m.cdf, u), m.nDom-1)
}

// sample is one arrival's outcome. Times are nanoseconds from the phase
// start.
type sample struct {
	due, sent, done int64
	path            int32
	status          int32
	gen             uint64
	hash            uint64
}

// phase is one open-loop (or closed-loop) run of the generator.
type phase struct {
	samples []sample
	missed  int
	wall    time.Duration // closed loop: first send to last response
}

// client is one connection's HTTP client. One goroutine at a time uses
// it.
type client struct {
	hc   *http.Client
	base string
	buf  []byte // body copy buffer, reused so reads allocate little of their own
}

func newClients(base string) []*client {
	out := make([]*client, conns)
	for i := range out {
		out[i] = &client{base: base, buf: make([]byte, 32<<10), hc: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			},
		}}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// get sends one request and hashes the body as it reads it.
func (c *client) get(path string, spanID uint64) (status int, gen, hash uint64, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	if _, err := io.CopyBuffer(h, resp.Body, c.buf); err != nil {
		return 0, 0, 0, err
	}
	gen, _ = strconv.ParseUint(resp.Header.Get(serve.GenerationHeader), 10, 64)
	return resp.StatusCode, gen, h.Sum64(), nil
}

// openLoop sends arrivals at rate until dur has passed (dur > 0) or stop
// closes (dur == 0). The hard stop is grace after the last due time:
// arrivals not sent by then are missed.
func openLoop(cs []*client, m *mix, rate float64, dur time.Duration, stop <-chan struct{}, grace time.Duration, tr *tracer) phase {
	start := time.Now()
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var stopAt atomic.Int64 // ns from start; MaxInt64 until stop closes
	stopAt.Store(math.MaxInt64)
	if dur > 0 {
		stopAt.Store(int64(dur))
	} else {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-stop:
				stopAt.Store(int64(time.Since(start)))
			case <-done:
			}
		}()
	}
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var local []sample
			for {
				i := next.Add(1) - 1
				due := int64(float64(i) * interval)
				if due >= stopAt.Load() {
					break
				}
				if sleepUntil(start.Add(time.Duration(due))) && due >= stopAt.Load() {
					break
				}
				sent := int64(time.Since(start))
				if end := stopAt.Load(); end != math.MaxInt64 && sent > end+int64(grace) {
					break // past the hard stop: the rest are missed
				}
				p := m.pick(uint64(i))
				sp := tr.startRequest("client.request")
				status, gen, hash, err := c.get(m.paths[p], sp.id)
				sp.end()
				if err != nil {
					status = -1
				}
				local = append(local, sample{due: due, sent: sent, done: int64(time.Since(start)),
					path: int32(p), status: int32(status), gen: gen, hash: hash})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	// Arrivals due before the stop were scheduled; those not sent are
	// missed.
	scheduled := int(math.Ceil(float64(stopAt.Load()) / interval))
	return phase{samples: samples, missed: max(0, scheduled-len(samples))}
}

// sleepUntil blocks until t and reports whether it had to wait. It sleeps
// in nanosleep rather than time.Sleep: the runtime's timers wake about a
// millisecond late on Linux, which would swamp the sub-millisecond
// latencies being measured, while nanosleep wakes within tens of
// microseconds and, unlike a spin, leaves the CPUs to the server.
func sleepUntil(t time.Time) bool {
	waited := false
	for {
		d := time.Until(t)
		if d <= 0 {
			return waited
		}
		waited = true
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early (EINTR) return loops
	}
}

// closedLoop sends n requests back to back over the connections: the bulk
// lookup whose wall time is serve's wall_s.
func closedLoop(cs []*client, m *mix, base uint64, n int, tr *tracer) phase {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var local []sample
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					break
				}
				sent := int64(time.Since(start))
				p := m.pick(base + uint64(i))
				sp := tr.startRequest("client.request")
				status, gen, hash, err := c.get(m.paths[p], sp.id)
				sp.end()
				if err != nil {
					status = -1
				}
				local = append(local, sample{due: sent, sent: sent, done: int64(time.Since(start)),
					path: int32(p), status: int32(status), gen: gen, hash: hash})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return phase{samples: samples, wall: time.Since(start)}
}

// latencies returns due-to-done times in microseconds, and lateness
// (due to sent) in microseconds.
func (p phase) latencies() (lat, late []float64) {
	for _, s := range p.samples {
		lat = append(lat, float64(s.done-s.due)/1e3)
		late = append(late, float64(s.sent-s.due)/1e3)
	}
	return lat, late
}

// failures counts non-200 responses, transport errors and missed arrivals.
func (p phase) failures() int {
	n := p.missed
	for _, s := range p.samples {
		if s.status != http.StatusOK {
			n++
		}
	}
	return n
}

// server is the /v1 API mounted the way cmd/retrodnsd mounts it: mux,
// metrics routes, http.TimeoutHandler, a loopback listener.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
	err  error // from Serve, read after done closes

	mu      sync.Mutex
	handler []float64 // ServeHTTP durations in microseconds (traced runs)
}

func startServer(engine *serve.Engine, reg *obsv.Registry, tr *tracer) (*server, error) {
	s := &server{done: make(chan struct{})}
	var h http.Handler = engine.Handler()
	if tr != nil {
		h = s.timed(h, tr)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", h)
	reg.Mount(mux)
	s.srv = &http.Server{
		Handler:           http.TimeoutHandler(mux, 10*time.Second, `{"error":"request timed out"}`+"\n"),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// timed wraps the engine's handler: one span per request, parented on the
// client span named in spanHeader, and its duration kept for the handler
// percentiles.
func (s *server) timed(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := tr.start(handlerSpan, parent, parent)
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		sp.end()
		s.mu.Lock()
		s.handler = append(s.handler, float64(d)/1e3)
		s.mu.Unlock()
	})
}

func (s *server) handlerTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.handler...)
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if s.err != nil {
		return s.err
	}
	return err
}

package main

// The serve workload is the read path alone. Set-up ingests a corpus past
// serve.DefaultPrerenderDomains the way cmd/retrodnsd -scans-csv does, so
// no per-domain body is prerendered: the engine's LRU takes the zipf head
// and the tail renders cold, the opposite of follow's cache state. The
// measured phase sends open-loop reads at a nominal rate, then up a ladder
// of rates, then repeats a closed-loop bulk lookup of a fixed request
// count. Nothing is written, so the WAL and segment layers stay idle.

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/scanner"
	"retrodns/internal/serve"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

func serveInputs(dir string, seed int64, sc scale) error {
	return writeScansCSV(filepath.Join(dir, scansFile),
		synth.Config{Domains: sc.serveDomains, Seed: seed, Scans: sc.serveScans})
}

// serveState is a published engine and what it was built from.
type serveState struct {
	reg    *obsv.Registry
	ds     *scanner.Dataset
	engine *serve.Engine
	build  time.Duration
	quar   int
	rows   int64
}

// serveSetup ingests the CSV through the feeder, classifies, builds and
// publishes a snapshot per scan, as retrodnsd -scans-csv does without a
// data dir. Between those calls it collects the heap, untimed: with
// hundreds of megabytes growing live, whether a collection happened to
// finish just before a call would otherwise decide the peak RSS. took is
// the time of the calls alone.
func serveSetup(path string) (st *serveState, took time.Duration, err error) {
	t := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st = &serveState{reg: obsv.NewRegistry(), ds: scanner.NewDatasetShards(scanner.DefaultShards)}
	st.ds.SetMetrics(st.reg)
	st.engine = serve.NewEngine(serve.Options{})
	st.engine.SetMetrics(st.reg)
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: st.ds, PDNS: pdns.NewDB(),
		Cache: core.NewClassifyCache(), Metrics: st.reg,
	}
	feeder := wal.NewFeeder(f, st.ds, nil, st.reg)
	collect := func() {
		took += time.Since(t)
		runtime.GC()
		t = time.Now()
	}
	for {
		_, appended, err := feeder.Tick()
		if err != nil {
			return nil, 0, err
		}
		if !appended {
			feeder.Finish()
			break
		}
		collect()
		res := pipe.Run()
		collect()
		b := time.Now()
		snap := serve.BuildSnapshot(res, st.ds, snapshotStamp(st.ds))
		st.build += time.Since(b)
		st.engine.Publish(snap)
	}
	took += time.Since(t)
	reg := counters(st.reg)
	st.quar = st.ds.Quarantine().Total + int(reg[wal.MetricFeedQuarantined])
	st.rows = reg[wal.MetricFeedRows]
	return st, took, nil
}

// prerenderedDomains is how many per-domain bodies a snapshot carries
// prerendered: its prerendered count less the singleton bodies (shortlist,
// funnel and one per pattern label), which are always prerendered.
func prerenderedDomains(s *serve.Snapshot) int {
	if s == nil {
		return 0
	}
	return max(0, s.Prerendered()-2-len(serve.PatternLabels))
}

// checkBodies compares every 200 response with what the engine returns in
// process for the same path; the snapshot does not change during the
// workload, so one expected hash per path covers every generation seen.
// It returns the number of responses checked and the problems found.
func checkBodies(engine *serve.Engine, m *mix, phases []phase) (int, []string) {
	gen := engine.Current().Generation
	want := make(map[int32]uint64)
	checked, bad := 0, 0
	var first string
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.status != http.StatusOK {
				continue
			}
			h, ok := want[s.path]
			if !ok {
				rec := httptest.NewRecorder()
				engine.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, m.paths[s.path], nil))
				sum := fnv.New64a()
				sum.Write(rec.Body.Bytes())
				h = sum.Sum64()
				want[s.path] = h
			}
			checked++
			if s.hash != h || s.gen != gen {
				bad++
				if first == "" {
					first = fmt.Sprintf("%s (generation %d, want %d)", m.paths[s.path], s.gen, gen)
				}
			}
		}
	}
	if bad > 0 {
		return checked, []string{fmt.Sprintf("serve: %d of %d response bodies differ from the engine's, first %s", bad, checked, first)}
	}
	return checked, nil
}

// logPhase prints an open-loop phase's figures to standard error.
func logPhase(name string, rate float64, ph phase) {
	lat, late := ph.latencies()
	fmt.Fprintf(os.Stderr, "perfbench: serve %s at %.0f/s: p50 %.0fus p99 %.0fus late p99 %.0fus, %d missed\n",
		name, rate, quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.99), ph.missed)
}

// bulkBase is the arrival index the bulk lookups draw their requests from,
// far from the open-loop phases' indices.
const bulkBase = 1 << 40

func runServe(env *runEnv, rep *childReport) error {
	sc := env.scale
	path := filepath.Join(env.dir, scansFile)
	var setups, builds []float64
	var st *serveState
	for range serveSetupReps {
		st = nil // the previous corpus is garbage before the next is built
		runtime.GC()
		var took time.Duration
		var err error
		if st, took, err = serveSetup(path); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		builds = append(builds, st.build.Seconds())
	}
	rep.Attempted += st.rows
	rep.Failed += int64(st.quar)
	rep.set("scanner.quarantined", float64(st.quar))
	resident, spilled := st.ds.SpillStats()
	rep.set("scanner.resident_mb", float64(resident)/(1<<20))
	rep.set("scanner.spilled_mb", float64(spilled)/(1<<20))
	rep.set("scanner.spilled_shards", float64(st.ds.SpilledShards()))
	rep.set("serve.build_snapshot_s", median(builds))
	rep.set("serve.prerendered", float64(prerenderedDomains(st.engine.Current())))

	srv, err := startServer(st.engine, st.reg, env.tr)
	if err != nil {
		return err
	}
	defer srv.close()
	domains := st.ds.Domains()
	names := make([]string, len(domains))
	for i, d := range domains {
		names[i] = string(d)
	}
	m := newMix(env.seed, names)
	cs := newClients(srv.base)
	defer closeClients(cs)

	// Warm the connections and the LRU with the bulk lookup's own
	// requests, untimed and unchecked.
	for range sc.serveWarmup {
		closedLoop(cs, m, bulkBase, sc.serveBurst, nil)
	}

	// The measured phase: bulk lookups for 60% of the time, then 15% at
	// the nominal open-loop rate, then the ladder. Every bulk lookup sends
	// the same requests, so they differ only in what the system does with
	// them. Each lookup, the nominal phase and each ladder step starts on
	// a collected heap: with most of the corpus live, one collection costs
	// about as much as a lookup, and whether the previous window's garbage
	// happened to be collected inside the next would otherwise decide its
	// time and the peak RSS. gc.cycles and gc.pause_ms count only the
	// collections inside these windows, the ones the reads set off.
	before := counters(st.reg)
	var gc gcStats
	t0 := time.Now()
	var phases []phase
	var walls []float64
	for len(walls) < 10 || time.Since(t0) < env.seconds*6/10 {
		g := collect()
		ph := closedLoop(cs, m, bulkBase, sc.serveBurst, env.tr)
		gc.addSince(g)
		phases = append(phases, ph)
		walls = append(walls, ph.wall.Seconds())
	}
	g := collect()
	nominal := openLoop(cs, m, sc.serveNominalRPS, env.seconds*3/20, nil, time.Second, env.tr)
	gc.addSince(g)
	phases = append(phases, nominal)
	logPhase("nominal", sc.serveNominalRPS, nominal)
	// Each ladder step sends the same number of arrivals, enough for a
	// p99 with ten samples beyond it.
	maxRPS := 0.0
	for _, rate := range sc.serveLadder {
		dur := time.Duration(float64(sc.serveStepArrivals) / rate * float64(time.Second))
		g := collect()
		ph := openLoop(cs, m, rate, dur, nil, time.Second, env.tr)
		gc.addSince(g)
		phases = append(phases, ph)
		logPhase("ladder", rate, ph)
		lat, late := ph.latencies()
		limit := float64(sc.serveP99Limit) / 1e3
		if ph.failures() > 0 || quantile(lat, 0.99) > limit || quantile(late, 0.99) > limit {
			break
		}
		maxRPS = rate
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve bulk lookups of %d: %v s\n", sc.serveBurst, walls)
	gc.report(rep, 1)
	if err := setPeakRSS(rep); err != nil {
		return err
	}
	after := counters(st.reg)
	env.units = 1

	for _, ph := range phases {
		rep.Attempted += int64(len(ph.samples) + ph.missed)
		rep.Failed += int64(ph.failures())
	}
	checked, problems := checkBodies(st.engine, m, phases)
	rep.Attempted += int64(checked)
	for _, p := range problems {
		rep.problem("%s", p)
	}

	lat, late := nominal.latencies()
	d := func(name string) float64 { return delta(before, after, name) }
	rep.set("setup_s", median(setups))
	rep.set("wall_s", median(walls))
	rep.set("read_p50_us", quantile(lat, 0.5))
	rep.set("read_p99_us", quantile(lat, 0.99))
	rep.set("read_samples", float64(len(lat)))
	rep.set("gen.late_p99_us", quantile(late, 0.99))
	rep.set("max_rps", maxRPS)
	rep.set("serve.lru_hits", d(serve.MetricServeCacheHits))
	rep.set("serve.lru_misses", d(serve.MetricServeCacheMisses))
	rep.set("serve.lru_evictions", d(serve.MetricServeCacheEvictions))
	rep.set("serve.lru_purged", d(serve.MetricServeCachePurged))
	if env.tr != nil {
		ht := srv.handlerTimes()
		rep.set("serve.handler_p50_us", quantile(ht, 0.5))
		rep.set("serve.handler_p99_us", quantile(ht, 0.99))
	}
	return nil
}

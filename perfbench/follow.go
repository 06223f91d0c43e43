package main

// The follow workload is the daemon write path of cmd/retrodnsd -data-dir
// -spill-dir: scans arrive one at a time through wal.Feeder.Tick into a
// fresh data dir, and each generation runs the cached pipeline, builds and
// publishes a snapshot and lets the store snapshot on its cadence, while an
// open-loop reader queries the published API beside the writes. The
// memory budget is about half the final corpus, so later generations hold
// resident and spilled shards both. Its set-up is the daemon's restart on
// the data dir such a replay leaves.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/dnscore"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/segment"
	"retrodns/internal/serve"
	"retrodns/internal/simtime"
	"retrodns/internal/synth"
	"retrodns/internal/wal"
)

// followSnapshotEvery is retrodnsd's -snapshot-every default.
const followSnapshotEvery = 4

// bytesPerRecord is the dataset's resident bytes per CSV record, as
// scanner.Dataset.SpillStats reports it for a 1k-domain follow corpus held
// fully resident (about 38 MB over 260k records); the spill budget is half
// the final corpus at this rate.
const bytesPerRecord = 150

func followInputs(dir string, seed int64, sc scale) error {
	return writeScansCSV(filepath.Join(dir, scansFile),
		synth.Config{Domains: sc.followDomains, Seed: seed, Scans: sc.followScans})
}

// followState is one replay's system: store, dataset, pipeline, engine and
// server.
type followState struct {
	dir    string
	reg    *obsv.Registry
	store  *wal.Store
	ds     *scanner.Dataset
	pipe   *core.Pipeline
	engine *serve.Engine
	srv    *server
	f      *os.File
	feeder *wal.Feeder
	// restored is the result a warm boot published, nil on a fresh dir.
	restored *core.Result
}

// followSetup starts the daemon on a data dir the way retrodnsd
// -data-dir -spill-dir -scans-csv does: it opens the store, and on a
// warm boot (the dir holds an earlier run's scans) runs the pipeline and
// publishes the recovered generation before reading the feed; then it
// starts the API server and opens the feed.
func followSetup(dir, csvPath string, budget int64, tr *tracer) (*followState, error) {
	root := tr.start("bench.daemon_start", 0, 0)
	defer root.end()
	st := &followState{dir: dir, reg: obsv.NewRegistry()}
	st.engine = serve.NewEngine(serve.Options{})
	st.engine.SetMetrics(st.reg)
	sp := tr.start("wal.open", root.id, 0)
	store, rec, err := wal.Open(wal.Options{
		Dir: filepath.Join(dir, "data"), Shards: scanner.DefaultShards,
		SnapshotEvery: followSnapshotEvery, Metrics: st.reg,
		Spill: &scanner.SpillOptions{Dir: filepath.Join(dir, "seg"), BudgetBytes: budget, Mode: segment.ModeAuto},
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	st.store, st.ds = store, rec.Dataset
	st.ds.SetMetrics(st.reg)
	if rec.Warm {
		st.ds.AccountRestored()
	}
	st.pipe = &core.Pipeline{
		Params: core.DefaultParams(), Dataset: st.ds, PDNS: pdns.NewDB(),
		Cache: rec.Cache, Metrics: st.reg,
	}
	if st.ds.Frozen() {
		st.restored = st.pipe.Run()
		st.engine.Publish(serve.BuildSnapshot(st.restored, st.ds, snapshotStamp(st.ds)))
	}
	if st.srv, err = startServer(st.engine, st.reg, tr); err != nil {
		store.Close()
		return nil, err
	}
	if st.f, err = os.Open(csvPath); err != nil {
		st.close()
		return nil, err
	}
	st.feeder = wal.NewFeeder(st.f, st.ds, st.store, st.reg)
	return st, nil
}

func (st *followState) close() error {
	err := st.srv.close()
	if st.f != nil {
		st.f.Close()
	}
	if cerr := st.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshotStamp is retrodnsd's: the snapshot's Built instant is the latest
// ingested scan date.
func snapshotStamp(ds *scanner.Dataset) time.Time {
	if date, ok := ds.LatestScanDate(); ok {
		return date.Time()
	}
	return simtime.StudyStart.Time()
}

// followOut is one replay's timings and outputs.
type followOut struct {
	wall                       time.Duration
	fresh                      []float64 // ms per generation
	tick, run, build, snapshot time.Duration
	publish                    []float64 // us per generation
	gens                       int
	reads                      phase
	last                       *core.Result
	hits, misses, dirty        int
	regBefore, regAfter        map[string]int64
	resident, spilled          int64
	spilledShards              int
	segBytes, dataBytes        int64
	segFiles                   int
	prerendered                int
}

// replay feeds every scan and returns when the last generation is
// published and the final snapshot written.
func (st *followState) replay(m *mix, tr *tracer) (followOut, error) {
	out := followOut{regBefore: counters(st.reg)}
	cs := newClients(st.srv.base)
	defer closeClients(cs)
	// The reader starts once the first generation is published (before
	// that every read would be a 503) and stops after the final snapshot.
	stopReads := make(chan struct{})
	readsDone := make(chan phase, 1)
	reading := false
	stop := func() {
		if reading {
			close(stopReads)
			out.reads = <-readsDone
			reading = false
		}
	}
	defer stop()
	t0 := time.Now()
	for {
		root := tr.start("bench.generation", 0, 0)
		offered := time.Now()
		sp := tr.start("wal.tick", root.id, 0)
		_, appended, err := st.feeder.Tick()
		out.tick += time.Since(offered)
		sp.end()
		if err != nil {
			return out, fmt.Errorf("tick: %w", err)
		}
		if !appended {
			st.feeder.Finish()
			root.end()
			break
		}
		sp = tr.start("core.run", root.id, 0)
		t := time.Now()
		res := st.pipe.Run()
		out.run += time.Since(t)
		sp.end()
		sp = tr.start("serve.build_snapshot", root.id, 0)
		t = time.Now()
		snap := serve.BuildSnapshot(res, st.ds, snapshotStamp(st.ds))
		out.build += time.Since(t)
		sp.end()
		sp = tr.start("serve.publish", root.id, 0)
		t = time.Now()
		st.engine.Publish(snap)
		now := time.Now()
		sp.end()
		out.publish = append(out.publish, float64(now.Sub(t))/1e3)
		out.fresh = append(out.fresh, float64(now.Sub(offered))/1e6)
		out.gens++
		out.last = res
		out.hits += res.Stats.CacheHits
		out.misses += res.Stats.CacheMisses
		out.dirty += res.Stats.DirtyCells
		if !reading {
			reading = true
			go func() { readsDone <- openLoop(cs, m, followReadRPS, 0, stopReads, time.Second, tr) }()
		}
		sp = tr.start("wal.maybe_snapshot", root.id, 0)
		t = time.Now()
		_, err = st.store.MaybeSnapshot()
		out.snapshot += time.Since(t)
		sp.end()
		root.end()
		if err != nil {
			return out, fmt.Errorf("snapshot: %w", err)
		}
	}
	root := tr.start("bench.final_snapshot", 0, 0)
	sp := tr.start("wal.snapshot", root.id, 0)
	t := time.Now()
	err := st.store.Snapshot()
	out.snapshot += time.Since(t)
	sp.end()
	root.end()
	out.wall = time.Since(t0)
	stop()
	if err != nil {
		return out, fmt.Errorf("final snapshot: %w", err)
	}
	if out.gens == 0 {
		return out, fmt.Errorf("no scan was appended to the data dir %s", st.dir)
	}
	out.regAfter = counters(st.reg)
	out.prerendered = prerenderedDomains(st.engine.Current())
	out.resident, out.spilled = st.ds.SpillStats()
	out.spilledShards = st.ds.SpilledShards()
	if out.dataBytes, _, err = dirUsage(filepath.Join(st.dir, "data")); err != nil {
		return out, err
	}
	out.segBytes, out.segFiles, err = dirUsage(filepath.Join(st.dir, "seg"))
	return out, err
}

// checkFollow re-runs the pipeline cold, without a cache, over the final
// dataset: its findings and per-domain history must equal the cached
// result that was served.
func checkFollow(st *followState, served *core.Result) ([]string, error) {
	cold := &core.Pipeline{Params: core.DefaultParams(), Dataset: st.ds, PDNS: pdns.NewDB()}
	res := cold.Run()
	var a, b bytes.Buffer
	if err := report.WriteJSON(&a, served); err != nil {
		return nil, err
	}
	if err := report.WriteJSON(&b, res); err != nil {
		return nil, err
	}
	var problems []string
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		problems = append(problems, "follow: cold run findings differ from the served cached run")
	}
	if ha, hb := historyDigest(served), historyDigest(res); ha != hb {
		problems = append(problems, fmt.Sprintf("follow: cold run history digest %x differs from served %x", hb, ha))
	}
	return problems, nil
}

// historyDigest hashes every (domain, period, category) of a result and
// its shortlist, in a fixed order.
func historyDigest(res *core.Result) uint64 {
	h := fnv.New64a()
	domains := make([]string, 0, len(res.History))
	for d := range res.History {
		domains = append(domains, string(d))
	}
	sort.Strings(domains)
	for _, d := range domains {
		byPeriod := res.History[dnscore.Name(d)]
		periods := make([]int, 0, len(byPeriod))
		for p := range byPeriod {
			periods = append(periods, int(p))
		}
		sort.Ints(periods)
		fmt.Fprintf(h, "%s", d)
		for _, p := range periods {
			fmt.Fprintf(h, "|%d:%v", p, byPeriod[simtime.Period(p)])
		}
		h.Write([]byte{'\n'})
	}
	for _, c := range res.Candidates {
		fmt.Fprintf(h, "c %s %d %v\n", c.Domain, c.Period, c.Pattern)
	}
	return h.Sum64()
}

func runFollow(env *runEnv, rep *childReport) error {
	csvPath := filepath.Join(env.dir, scansFile)
	sc := env.scale
	budget := int64(sc.followDomains*sc.followScans) * bytesPerRecord / 2
	domains := make([]string, sc.followDomains)
	for i := range domains {
		domains[i] = fmt.Sprintf("d%08d.example", i)
	}
	m := newMix(env.seed, domains)

	// Every replay gets a fresh data dir of its own, left for the parent
	// to remove with the work dir, so no deletion runs between them. They
	// sit under a directory of this run's own: the untraced and the traced
	// run of one invocation share the work dir, and a replay that opened
	// an earlier run's data dir would restore its scans instead of
	// ingesting them.
	root, err := os.MkdirTemp(env.dir, "follow-")
	if err != nil {
		return err
	}
	n := 0
	newState := func(tr *tracer) (*followState, error) {
		n++
		return followSetup(filepath.Join(root, fmt.Sprintf("replay-%d", n)), csvPath, budget, tr)
	}

	// One replay, untimed and untraced, before the measured ones: a
	// process's first replay mostly runs slower than the rest, by up to a
	// fifth, while its heap grows and the code and the input file are
	// first touched.
	warm, err := newState(nil)
	if err != nil {
		return err
	}
	_, err = warm.replay(m, nil)
	if cerr := warm.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	var outs []followOut
	var gc gcStats
	var measured time.Duration
	var lastDir string
	var lastDigest uint64
	for len(outs) == 0 || measured < env.seconds {
		g := collect()
		t := time.Now()
		st, err := newState(env.tr)
		if err != nil {
			return err
		}
		boot := time.Since(t)
		out, err := st.replay(m, env.tr)
		gc.addSince(g)
		out.wall += boot
		if err != nil {
			st.close()
			return err
		}
		measured += out.wall
		if env.tr != nil {
			rep.set("serve.handler_p50_us", quantile(st.srv.handlerTimes(), 0.5))
			rep.set("serve.handler_p99_us", quantile(st.srv.handlerTimes(), 0.99))
		}
		// Untimed output checks.
		rep.Attempted++
		lastDir, lastDigest = st.dir, historyDigest(out.last)
		problems, err := checkFollow(st, out.last)
		if err != nil {
			st.close()
			return err
		}
		if out.gens != sc.followScans {
			problems = append(problems, fmt.Sprintf("follow: %d generations published, want %d", out.gens, sc.followScans))
		}
		final := st.engine.Current().Generation
		for _, s := range out.reads.samples {
			if s.status == 200 && (s.gen == 0 || s.gen > final) {
				problems = append(problems, fmt.Sprintf("follow: read served generation %d, newest published is %d", s.gen, final))
				break
			}
		}
		for _, p := range problems {
			rep.problem("%s", p)
		}
		quar := st.ds.Quarantine().Total + int(delta(out.regBefore, out.regAfter, wal.MetricFeedQuarantined))
		rep.set("scanner.quarantined", float64(quar))
		rep.Attempted += int64(delta(out.regBefore, out.regAfter, wal.MetricFeedRows)) + int64(len(out.reads.samples)+out.reads.missed)
		rep.Failed += int64(quar + out.reads.failures())
		out.last = nil
		if err := st.close(); err != nil {
			return err
		}
		outs = append(outs, out)
	}
	gc.report(rep, len(outs))
	if err := setPeakRSS(rep); err != nil {
		return err
	}

	// setup_s is the daemon's restart on the data dir the last replay
	// left: recovery of the snapshot and segments, the cached run, and the
	// publish of the recovered generation; the median over many restarts.
	// A fresh data dir's open is only directory and file creation, whose
	// time is the disk's, not the program's; it is timed inside each
	// replay's wall_s instead. The restarts come after the measured phase
	// and peak_rss_mb is read before them: a restored dataset keeps its
	// spilled shards' segments mapped until they are unspilled, so each
	// restart in one process adds its mappings to the RSS, where a
	// restarted daemon would start a new process. Each restart's teardown
	// collects the heap, untimed, as that exit would.
	var restarted *followState
	setups, err := timeSetups(sc.setupReps, func() (func() error, error) {
		st, err := followSetup(lastDir, csvPath, budget, nil)
		restarted = st
		if err != nil {
			return nil, err
		}
		return func() error {
			err := st.close()
			runtime.GC()
			return err
		}, nil
	})
	if err != nil {
		return err
	}
	rep.Attempted++
	if restarted.restored == nil {
		rep.problem("follow: a restart on a finished data dir recovered nothing")
	} else if d := historyDigest(restarted.restored); d != lastDigest {
		rep.problem("follow: a restart serves history digest %x, the replay that left the data dir %x", d, lastDigest)
	}

	env.units = len(outs)
	walls := make([]float64, len(outs))
	for i, o := range outs {
		walls[i] = o.wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: follow replays: %v s\n", walls)

	pick := func(f func(followOut) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	var fresh, publish, lat, late []float64
	for _, o := range outs {
		fresh = append(fresh, o.fresh...)
		publish = append(publish, o.publish...)
		l, lt := o.reads.latencies()
		lat = append(lat, l...)
		late = append(late, lt...)
	}
	last := outs[len(outs)-1]
	d := func(name string) float64 { return delta(last.regBefore, last.regAfter, name) }
	rep.set("setup_s", median(setups))
	rep.set("wall_s", pick(func(o followOut) float64 { return o.wall.Seconds() }))
	rep.set("fresh_p50_ms", quantile(fresh, 0.5))
	rep.set("fresh_samples", float64(len(fresh)))
	rep.set("read_p50_us", quantile(lat, 0.5))
	rep.set("read_p99_us", quantile(lat, 0.99))
	rep.set("read_samples", float64(len(lat)))
	rep.set("gen.late_p99_us", quantile(late, 0.99))
	rep.set("disk_mb", float64(last.dataBytes+last.segBytes)/(1<<20))
	rep.set("scanner.resident_mb", float64(last.resident)/(1<<20))
	rep.set("scanner.spilled_mb", float64(last.spilled)/(1<<20))
	rep.set("scanner.spilled_shards", float64(last.spilledShards))
	rep.set("core.run_s", pick(func(o followOut) float64 { return o.run.Seconds() }))
	rep.set("core.cache_hits", float64(last.hits))
	rep.set("core.cache_misses", float64(last.misses))
	rep.set("core.dirty_cells", float64(last.dirty))
	rep.set("wal.tick_s", pick(func(o followOut) float64 { return o.tick.Seconds() }))
	rep.set("wal.snapshot_s", pick(func(o followOut) float64 { return o.snapshot.Seconds() }))
	rep.set("wal.bytes", d(wal.MetricWALBytes))
	rep.set("wal.snapshots", d(wal.MetricWALSnapshots))
	rep.set("segment.seals", d(scanner.MetricSegmentSeals))
	rep.set("segment.sealed_mb", d(scanner.MetricSegmentSealedBytes)/(1<<20))
	rep.set("segment.reads", d(scanner.MetricSegmentReads))
	rep.set("segment.read_mb", d(scanner.MetricSegmentReadBytes)/(1<<20))
	rep.set("segment.unspills", d(scanner.MetricSegmentUnspills))
	rep.set("segment.files", float64(last.segFiles))
	rep.set("segment.dir_mb", float64(last.segBytes)/(1<<20))
	rep.set("serve.build_snapshot_s", pick(func(o followOut) float64 { return o.build.Seconds() }))
	rep.set("serve.publish_us", quantile(publish, 0.5))
	rep.set("serve.lru_hits", d(serve.MetricServeCacheHits))
	rep.set("serve.lru_misses", d(serve.MetricServeCacheMisses))
	rep.set("serve.lru_evictions", d(serve.MetricServeCacheEvictions))
	rep.set("serve.lru_purged", d(serve.MetricServeCachePurged))
	rep.set("serve.prerendered", float64(last.prerendered))
	return nil
}

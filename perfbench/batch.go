package main

// The batch workload is the analyst path of cmd/retrodns: scans.csv is
// parsed, each scan appended, one pipeline run made with a fresh cache,
// and the run report built and encoded. The WAL, segment and serve layers
// stay idle, which makes it the control for them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/pdns"
	"retrodns/internal/report"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
)

func batchInputs(dir string, seed int64, sc scale) error {
	return writeScansCSV(filepath.Join(dir, scansFile),
		synth.Config{Domains: sc.batchDomains, Seed: seed, Scans: sc.batchScans})
}

// batchExpect is the recorded output of the default seed (1) at a scale.
type batchExpect struct {
	funnel map[string]int
	digest string // sha256 prefix of report.WriteJSON's bytes
}

// batchState is what a pass needs before it reads its first row.
type batchState struct {
	reg         *obsv.Registry
	ds          *scanner.Dataset
	pipe        *core.Pipeline
	f           *os.File
	csv         *scanner.ScanCSV
	quarantined int
}

// batchSetup is the analyst's set-up: registry, dataset, pipeline and the
// open CSV reader.
func batchSetup(path string) (*batchState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st := &batchState{reg: obsv.NewRegistry(), ds: scanner.NewDatasetShards(scanner.DefaultShards), f: f}
	st.ds.SetMetrics(st.reg)
	st.pipe = &core.Pipeline{
		Params: core.DefaultParams(), Dataset: st.ds, PDNS: pdns.NewDB(),
		Cache: core.NewClassifyCache(), Metrics: st.reg,
	}
	st.csv = scanner.NewScanCSV(f)
	st.csv.OnQuarantine = func(string, string) { st.quarantined++ }
	return st, nil
}

// batchOut is one pass's timings and outputs.
type batchOut struct {
	wall, parse, append, run, encode time.Duration
	appendAlloc, runAlloc            float64
	rows                             int
	res                              *core.Result
	reportBytes                      int
	funnel                           map[string]int
	digest                           string
}

// pass runs CSV to encoded report once.
func (st *batchState) pass(tr *tracer) (batchOut, error) {
	var out batchOut
	traced := tr != nil
	root := tr.start("bench.batch_pass", 0, 0)
	t0 := time.Now()
	var next *scanner.Record // first row of the next scan
	for done := false; !done; {
		sp := tr.start("scanner.parse", root.id, 0)
		t := time.Now()
		var batch []*scanner.Record
		if next != nil {
			batch, next = append(batch, next), nil
		}
		for {
			rec, err := st.csv.Next()
			if errors.Is(err, io.EOF) {
				st.csv.FinishTail()
				done = true
				break
			}
			if err != nil {
				return out, fmt.Errorf("parse: %w", err)
			}
			if len(batch) > 0 && rec.ScanDate != batch[0].ScanDate {
				next = rec
				break
			}
			batch = append(batch, rec)
		}
		out.parse += time.Since(t)
		sp.end()
		if len(batch) == 0 {
			continue
		}
		out.rows += len(batch)
		var a0 float64
		if traced {
			a0 = allocMB()
		}
		sp = tr.start("scanner.append", root.id, 0)
		t = time.Now()
		err := st.ds.Append(batch[0].ScanDate, batch)
		out.append += time.Since(t)
		sp.end()
		if traced {
			out.appendAlloc += allocMB() - a0
		}
		if err != nil {
			return out, fmt.Errorf("append: %w", err)
		}
	}

	var a0 float64
	if traced {
		a0 = allocMB()
	}
	sp := tr.start("core.run", root.id, 0)
	t := time.Now()
	out.res = st.pipe.Run()
	out.run = time.Since(t)
	sp.end()
	if traced {
		out.runAlloc = allocMB() - a0
	}

	sp = tr.start("report.encode", root.id, 0)
	t = time.Now()
	var buf bytes.Buffer
	err := report.BuildRunReport(out.res, st.ds.Quarantine(), st.reg).Encode(&buf)
	out.encode = time.Since(t)
	sp.end()
	out.wall = time.Since(t0)
	root.end()
	out.reportBytes = buf.Len()
	return out, err
}

// findingsDigest hashes the findings export of a result.
func findingsDigest(res *core.Result) (string, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// checkBatch compares a pass's outputs with the recorded ones; want is nil
// for a seed without a recording, when only the corpus-shape checks apply.
func checkBatch(out batchOut, domains int, want *batchExpect) []string {
	var problems []string
	if out.funnel["domains"] != domains {
		problems = append(problems, fmt.Sprintf("batch: %d domains classified, want %d", out.funnel["domains"], domains))
	}
	if out.reportBytes == 0 {
		problems = append(problems, "batch: empty run report")
	}
	if want == nil {
		return problems
	}
	for _, k := range sortedKeys(want.funnel) {
		if got := out.funnel[k]; got != want.funnel[k] {
			problems = append(problems, fmt.Sprintf("batch: funnel %s=%d, want %d", k, got, want.funnel[k]))
		}
	}
	if out.digest != want.digest {
		problems = append(problems, fmt.Sprintf("batch: findings digest %s, want %s", out.digest, want.digest))
	}
	return problems
}

func runBatch(env *runEnv, rep *childReport) error {
	path := filepath.Join(env.dir, scansFile)
	// setup_s is the median over set-ups made before the measured phase,
	// all from the same fresh process state.
	setups, err := timeSetups(env.scale.setupReps, func() (func() error, error) {
		st, err := batchSetup(path)
		if err != nil {
			return nil, err
		}
		return st.f.Close, nil
	})
	if err != nil {
		return err
	}

	// Passes repeat until the measured time is used up. Each starts from a
	// fresh set-up and a collected heap, as a new cmd/retrodns process
	// would, so one pass's garbage does not land in the next.
	var outs []batchOut
	var gc gcStats
	var measured time.Duration
	for len(outs) == 0 || measured < env.seconds {
		st, err := batchSetup(path)
		if err != nil {
			return err
		}
		g := collect()
		out, err := st.pass(env.tr)
		gc.addSince(g)
		st.f.Close()
		if err != nil {
			return err
		}
		measured += out.wall
		rep.Attempted += int64(out.rows)
		quar := st.quarantined + st.ds.Quarantine().Total
		rep.Failed += int64(quar)
		rep.set("scanner.quarantined", float64(quar))
		resident, spilled := st.ds.SpillStats()
		rep.set("scanner.resident_mb", float64(resident)/(1<<20))
		rep.set("scanner.spilled_mb", float64(spilled)/(1<<20))
		rep.set("scanner.spilled_shards", float64(st.ds.SpilledShards()))
		rep.set("core.cache_hits", float64(out.res.Stats.CacheHits))
		rep.set("core.cache_misses", float64(out.res.Stats.CacheMisses))
		rep.set("core.dirty_cells", float64(out.res.Stats.DirtyCells))
		if out.digest, err = findingsDigest(out.res); err != nil {
			return err
		}
		out.funnel = report.FunnelCounts(out.res)
		out.res = nil
		outs = append(outs, out)
	}
	gc.report(rep, len(outs))
	if err := setPeakRSS(rep); err != nil {
		return err
	}
	env.units = len(outs)
	walls := make([]float64, len(outs))
	for i, o := range outs {
		walls[i] = o.wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: batch passes: %v s\n", walls)

	// Output checks, untimed: every pass matches the recording for the
	// default seed (or, for another seed, the corpus shape and pass 0).
	var want *batchExpect
	if env.seed == 1 {
		want = &env.scale.batchWant
	}
	for i, out := range outs {
		rep.Attempted++
		problems := checkBatch(out, env.scale.batchDomains, want)
		if want == nil && out.digest != outs[0].digest {
			problems = append(problems, fmt.Sprintf("batch: pass %d digest %s differs from pass 0's %s", i, out.digest, outs[0].digest))
		}
		for _, p := range problems {
			rep.problem("%s", p)
		}
	}

	pick := func(f func(batchOut) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", pick(func(o batchOut) float64 { return o.wall.Seconds() }))
	rep.set("scanner.parse_s", pick(func(o batchOut) float64 { return o.parse.Seconds() }))
	rep.set("scanner.append_s", pick(func(o batchOut) float64 { return o.append.Seconds() }))
	rep.set("scanner.append_alloc_mb", pick(func(o batchOut) float64 { return o.appendAlloc }))
	rep.set("core.run_s", pick(func(o batchOut) float64 { return o.run.Seconds() }))
	rep.set("core.run_alloc_mb", pick(func(o batchOut) float64 { return o.runAlloc }))
	rep.set("report.encode_s", pick(func(o batchOut) float64 { return o.encode.Seconds() }))
	return nil
}

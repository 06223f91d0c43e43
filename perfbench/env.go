package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"retrodns/internal/core"
	"retrodns/internal/obsv"
	"retrodns/internal/scanner"
	"retrodns/internal/synth"
	"retrodns/internal/world"
)

// scale sizes the three workloads' inputs and load.
type scale struct {
	batchDomains, batchScans   int
	followDomains, followScans int
	serveDomains, serveScans   int

	// batchWant is batch's recorded output for the default seed (1).
	batchWant batchExpect

	// setupReps is how many set-ups a batch or follow run times; setup_s
	// is their median.
	setupReps int

	serveNominalRPS   float64       // serve's nominal open-loop rate
	serveLadder       []float64     // open-loop rates tried for max_rps
	serveStepArrivals int           // arrivals per ladder step
	serveP99Limit     time.Duration // a ladder step passes with p99 at or below this
	serveBurst        int           // requests in one closed-loop bulk lookup (wall_s)
	serveWarmup       int           // untimed bulk lookups before measuring
}

// serveSetupReps is how many set-ups a serve run makes: each ingests and
// classifies the whole corpus.
const serveSetupReps = 3

// followReadRPS is the open-loop read rate beside follow's writes.
const followReadRPS = 200

// fullScale is the scale the command runs at. It keeps a run, with the
// paper-world check, under a minute on 2 CPUs, and sizes batch so that a
// run repeats its unit of work about ten times: the median of many short
// units rides out the CPU steal of a shared host better than one long
// unit would. follow repeats its replay about five times: a replay's
// fsyncs, file creations and segment maps are fixed per generation, and
// on a virtual machine whose host is busy each wait on one costs far
// more than its CPU time, so in one spell of steal a replay of 1k
// domains (about a second) slowed by 85% where batch slowed by 25%;
// twice the domains halve that share. serve stays past the prerender
// budget.
var fullScale = scale{
	batchDomains: 10_000, batchScans: 12,
	followDomains: 2_000, followScans: 26,
	serveDomains: 200_000, serveScans: 1,
	batchWant: batchExpect{
		funnel: map[string]int{
			"domains": 10000, "maps": 10000, "stable": 9991, "transition": 4,
			"transient": 5, "noisy": 0, "shortlisted": 5, "shortlisted_anomalous": 0,
			"worth_examining": 0, "stitched": 0, "pivot_found": 0,
			"hijacked_verdicts": 0, "targeted_verdicts": 0,
		},
		digest: "a00d037c6464ce66",
	},
	setupReps:         75,
	serveNominalRPS:   1000,
	serveLadder:       []float64{1000, 2000, 3000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 20000, 24000},
	serveStepArrivals: 1000,
	serveP99Limit:     5 * time.Millisecond,
	serveBurst:        4_000,
	serveWarmup:       3,
}

// runEnv is what a workload run gets.
type runEnv struct {
	dir     string
	seed    int64
	seconds time.Duration
	scale   scale
	tr      *tracer // nil when untraced
	// units is how many units of work the measured phase did (passes,
	// replays); per-layer totals are divided by it.
	units int
}

type workload struct {
	inputs func(dir string, seed int64, sc scale) error
	run    func(env *runEnv, rep *childReport) error
}

var workloads = map[string]workload{
	"batch":  {inputs: batchInputs, run: runBatch},
	"follow": {inputs: followInputs, run: runFollow},
	"serve":  {inputs: serveInputs, run: runServe},
}

const scansFile = "scans.csv"

// writeScansCSV writes a synth corpus as scans.csv, the way cmd/worldgen
// -domains does.
func writeScansCSV(path string, cfg synth.Config) error {
	g := synth.New(cfg)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := csv.NewWriter(bw)
	if err := cw.Write(scanner.ScanCSVHeader); err != nil {
		return err
	}
	for _, date := range g.ScanDates() {
		g.EmitScan(date, func(r *scanner.Record) {
			if err == nil {
				err = cw.Write(scanner.FormatScanRow(r))
			}
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timeSetups times n set-ups made back to back, after untimed ones that
// warm the process: the first few dozen set-ups of a fresh process run
// half again as long and vary more. setup returns the teardown for what
// it set up; teardown is not timed.
func timeSetups(n int, setup func() (func() error, error)) ([]float64, error) {
	const warm = 25
	var out []float64
	for i := range warm + n {
		t := time.Now()
		teardown, err := setup()
		took := time.Since(t)
		if err != nil {
			return nil, err
		}
		if err := teardown(); err != nil {
			return nil, err
		}
		if i >= warm {
			out = append(out, took.Seconds())
		}
	}
	return out, nil
}

// Paper world expectations (EXPERIMENTS.md, stable 80, seed 1).
const (
	paperHijacked = 41
	paperTargeted = 24
	paperPivot    = 13
)

// checkPaperWorld runs the paper world through the pipeline the way
// cmd/retrodns does and checks the headline verdict counts.
func checkPaperWorld() error {
	cfg := world.DefaultConfig()
	cfg.Seed = 1
	cfg.StableDomains = 80
	cfg.TransitionDomains = cfg.StableDomains * 3 / 100
	cfg.NoisyDomains = max(2, cfg.StableDomains/250)
	w := world.New(cfg)
	ds := w.Run()
	if len(w.Errors) > 0 {
		return fmt.Errorf("world generation: %v", w.Errors[0])
	}
	pipe := &core.Pipeline{
		Params: core.DefaultParams(), Dataset: ds, Meta: w.Meta,
		PDNS: w.PDNSDB, CT: w.CT, DNSSEC: w.SecLog,
		Cache: core.NewClassifyCache(),
	}
	res := pipe.Run()
	if h, t, p := len(res.Hijacked), len(res.Targeted), res.Funnel.PivotFound; h != paperHijacked || t != paperTargeted || p != paperPivot {
		return fmt.Errorf("hijacked=%d targeted=%d pivot=%d, want %d %d %d",
			h, t, p, paperHijacked, paperTargeted, paperPivot)
	}
	return nil
}

// counters reads a registry's counter and gauge values by series name, so
// deltas can be taken around a measured phase.
func counters(reg *obsv.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range reg.Snapshot() {
		if s.Kind == "histogram" {
			continue
		}
		out[s.Name] += s.Value
	}
	return out
}

// delta returns after[name] - before[name].
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// gcStats are runtime collection figures: cycles and total pause.
type gcStats struct {
	cycles uint32
	pause  uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pause: ms.PauseTotalNs}
}

// collect forces a collection and returns the figures after it, the start
// of a measured window. The workloads start each window on a collected
// heap so that whether an earlier window's garbage is collected inside a
// later one does not decide its time.
func collect() gcStats {
	runtime.GC()
	return readGC()
}

// addSince adds the collections since start, the work of one measured
// window, to g. Summed over the windows, g leaves out the collections the
// benchmark forces between them and counts the ones the measured work
// set off.
func (g *gcStats) addSince(start gcStats) {
	now := readGC()
	g.cycles += now.cycles - start.cycles
	g.pause += now.pause - start.pause
}

// report sets gc.cycles and gc.pause_ms per unit of work.
func (g gcStats) report(rep *childReport, units int) {
	rep.set("gc.cycles", float64(g.cycles)/float64(units))
	rep.set("gc.pause_ms", float64(g.pause)/1e6/float64(units))
}

// allocMB returns the bytes allocated so far, in MB; only read in traced
// runs, since ReadMemStats stops the world.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// dirUsage returns the bytes and regular-file count under dir.
func dirUsage(dir string) (int64, int, error) {
	var bytes int64
	files := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	i = min(max(i, 0), len(xs)-1)
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

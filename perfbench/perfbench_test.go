package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, tab []metricDef) {
		if len(file) != len(tab) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(file), len(tab))
		}
		for i := range min(len(file), len(tab)) {
			if file[i].Name != tab[i].name || file[i].Unit != tab[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, file[i].Name, file[i].Unit, tab[i].name, tab[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// tinyScale is the test scale: the workloads' shapes at a few hundred
// domains.
var tinyScale = scale{
	batchDomains: 300, batchScans: 4,
	followDomains: 200, followScans: 6,
	serveDomains: 400, serveScans: 1,
	batchWant: batchExpect{
		funnel: map[string]int{
			"domains": 300, "maps": 300, "stable": 300, "transition": 0,
			"transient": 0, "noisy": 0, "shortlisted": 0, "shortlisted_anomalous": 0,
			"worth_examining": 0, "stitched": 0, "pivot_found": 0,
			"hijacked_verdicts": 0, "targeted_verdicts": 0,
		},
		digest: "c2e59bf79c530444",
	},
	setupReps:         5,
	serveNominalRPS:   500,
	serveLadder:       []float64{500, 1000},
	serveStepArrivals: 50,
	serveP99Limit:     50 * time.Millisecond,
	serveBurst:        200,
	serveWarmup:       1,
}

// tinyInputs writes a workload's tiny-scale inputs to a fresh directory.
func tinyInputs(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	if err := workloads[name].inputs(dir, 1, tinyScale); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runTiny runs one workload in process at the test scale.
func runTiny(t *testing.T, name string, traced bool) *childReport {
	t.Helper()
	return runTinyIn(t, tinyInputs(t, name), name, traced)
}

// runTinyIn runs one workload in process over tiny inputs in dir, as the
// child process of one invocation does.
func runTinyIn(t *testing.T, dir, name string, traced bool) *childReport {
	t.Helper()
	o := options{workload: name, seed: 1, seconds: 1, trace: traced, traceOut: dir + "/trace.json"}
	rep, err := runWorkload(o, dir, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("%s: output checks failed: %v", name, rep.Problems)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return rep
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range []string{"batch", "follow", "serve"} {
		t.Run(name, func(t *testing.T) {
			untraced := runTiny(t, name, false)
			for _, m := range endToEnd {
				if v := untraced.Metrics[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.name, v)
				}
			}
			traced := mergeTraced(untraced, runTiny(t, name, true))
			for _, m := range perLayer {
				if _, ok := traced.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			controls(t, name, traced.Metrics)
		})
	}
}

// TestTracedRunAfterUntraced runs each workload the way one --trace 1
// invocation does: the untraced run, then the traced run over the same
// work dir, which still holds what the untraced run left there.
func TestTracedRunAfterUntraced(t *testing.T) {
	for _, name := range []string{"batch", "follow", "serve"} {
		t.Run(name, func(t *testing.T) {
			dir := tinyInputs(t, name)
			untraced := runTinyIn(t, dir, name, false)
			traced := mergeTraced(untraced, runTinyIn(t, dir, name, true))
			controls(t, name, traced.Metrics)
		})
	}
}

// controls checks that the layers a workload leaves idle read zero.
func controls(t *testing.T, name string, m map[string]float64) {
	idle := map[string][]string{
		"batch": {"wal.", "segment.", "serve."},
		"serve": {"wal.", "segment."},
	}[name]
	for metric, v := range m {
		for _, prefix := range idle {
			if strings.HasPrefix(metric, prefix) && v != 0 {
				t.Errorf("%s on %s = %v, want 0 (idle layer)", metric, name, v)
			}
		}
	}
	switch name {
	case "follow":
		if got, want := m["serve.prerendered"], float64(tinyScale.followDomains); got != want {
			t.Errorf("follow serve.prerendered = %v, want every domain (%v)", got, want)
		}
		for _, metric := range []string{"wal.tick_s", "wal.bytes", "core.run_s", "serve.build_snapshot_s", "fresh_p50_ms", "read_p50_us"} {
			if !(m[metric] > 0) {
				t.Errorf("follow %s = %v, want > 0", metric, m[metric])
			}
		}
	case "batch":
		for _, metric := range []string{"scanner.parse_s", "scanner.append_s", "core.run_s", "report.encode_s", "scanner.append_alloc_mb"} {
			if !(m[metric] > 0) {
				t.Errorf("batch %s = %v, want > 0", metric, m[metric])
			}
		}
	case "serve":
		for _, metric := range []string{"read_p50_us", "max_rps", "serve.handler_p50_us", "client.self_s"} {
			if !(m[metric] > 0) {
				t.Errorf("serve %s = %v, want > 0", metric, m[metric])
			}
		}
	}
}

func TestWrongDigestFailsBatchCheck(t *testing.T) {
	want := tinyScale.batchWant
	out := batchOut{funnel: want.funnel, digest: want.digest, reportBytes: 1}
	if p := checkBatch(out, tinyScale.batchDomains, &want); len(p) != 0 {
		t.Fatalf("recorded outputs fail the check: %v", p)
	}
	wrong := want
	wrong.digest = "0000000000000000"
	if p := checkBatch(out, tinyScale.batchDomains, &wrong); len(p) != 1 {
		t.Fatalf("a wrong expected digest gave problems %v, want one", p)
	}
	wrong = want
	wrong.funnel = map[string]int{"domains": want.funnel["domains"] + 1}
	if p := checkBatch(out, tinyScale.batchDomains, &wrong); len(p) != 1 {
		t.Fatalf("a wrong funnel count gave problems %v, want one", p)
	}
}

func TestOpenLoopReportsLatenessAndMisses(t *testing.T) {
	// The handler takes 20ms, so two connections serve at most 100/s; at
	// 400/s arrivals fall behind, run late, and past the hard stop are
	// missed.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	cs := newClients(srv.URL)
	defer closeClients(cs)
	m := newMix(1, []string{"a.example", "b.example"})
	ph := openLoop(cs, m, 400, 300*time.Millisecond, nil, 50*time.Millisecond, nil)
	if ph.missed == 0 {
		t.Errorf("no missed arrivals (%d sent)", len(ph.samples))
	}
	if got := len(ph.samples) + ph.missed; got != 120 {
		t.Errorf("sent+missed = %d, want the 120 scheduled", got)
	}
	if ph.failures() != ph.missed {
		t.Errorf("failures %d, want the %d missed", ph.failures(), ph.missed)
	}
	lat, late := ph.latencies()
	if p99 := quantile(late, 0.99); p99 < 50_000 {
		t.Errorf("late p99 %.0fus, want the backlog to show (>= 50ms)", p99)
	}
	if p50 := quantile(lat, 0.5); p50 < 20_000 {
		t.Errorf("latency p50 %.0fus below the handler's 20ms", p50)
	}
}

func TestOpenLoopOnTimeWhenIdle(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	cs := newClients(srv.URL)
	defer closeClients(cs)
	m := newMix(1, []string{"a.example"})
	ph := openLoop(cs, m, 200, 250*time.Millisecond, nil, time.Second, nil)
	if ph.missed != 0 || ph.failures() != 0 || len(ph.samples) != 50 {
		t.Fatalf("sent %d, missed %d, failed %d; want 50 sent and none missed or failed", len(ph.samples), ph.missed, ph.failures())
	}
}

func TestMixIsAFunctionOfSeedAndIndex(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	a, b, c := newMix(7, domains), newMix(7, domains), newMix(8, domains)
	same, differs := true, false
	for i := uint64(0); i < 1000; i++ {
		same = same && a.pick(i) == b.pick(i)
		differs = differs || a.pick(i) != c.pick(i)
	}
	if !same || !differs {
		t.Fatalf("same seed agrees: %v; another seed differs: %v", same, differs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scanner.parse", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.run", Start: 30, End: 70},
		{ID: 4, Parent: 3, Name: "core.inner", Start: 50, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 40, "scanner": 30, "core": 40}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s self = %v, want %v", layer, got[layer], d)
		}
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 110 {
		t.Errorf("self times sum to %v; want the root's 100 plus the 10 its overlapping children share", sum)
	}
}

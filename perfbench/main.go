// Command perfbench is the repository benchmark. It runs one of three
// workloads over a seeded synthetic corpus, drives the retrodns layers by
// calling their public functions in the order cmd/retrodns and
// cmd/retrodnsd do, times each call from outside, checks the outputs, and
// prints one JSON result line:
//
//	perfbench --workload batch|follow|serve --seed N --seconds S --trace 0|1
//
// The process first checks the paper world (stable 80, seed 1 gives 41
// hijacked, 24 targeted and 13 pivot-found domains) while it writes the
// workload's scans.csv, then runs the workload in a fresh child process,
// which reports its own peak RSS. With --trace 1 it runs the workload
// twice, untraced and traced, and prints the per-layer metrics and the
// tracing overhead instead of the end-to-end metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childReport is what one workload run hands back to the parent.
type childReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	// Problems lists failed output checks; any entry fails the run.
	Problems []string `json:"problems,omitempty"`
}

func (r *childReport) set(name string, v float64) { r.Metrics[name] = v }

func (r *childReport) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func newReport() *childReport { return &childReport{Metrics: make(map[string]float64)} }

// buildDirName holds the binary, inputs, data dirs and traces, relative
// to the working directory (the checkout root).
const buildDirName = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	child    string // input dir; set only in the child process
	traceOut string // where a traced child writes its spans
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: batch, follow or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: run the workload over this input dir")
	fs.StringVar(&o.traceOut, "trace-out", "", "internal: write the traced child's spans to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have batch, follow, serve)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.child != "" {
		rep, err := runWorkload(o, o.child, fullScale)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rep)
	}

	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(buildDirName, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDirName, "work-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The paper-world check and the input generation share the wait; the
	// measured phase runs later, in the child, with the CPUs to itself.
	paper := make(chan error, 1)
	go func() { paper <- checkPaperWorld() }()
	genErr := workloads[o.workload].inputs(dir, o.seed, fullScale)
	paperErr := <-paper
	if genErr != nil {
		return fmt.Errorf("inputs: %w", genErr)
	}
	runtime.GC()
	debug.FreeOSMemory()

	untraced, err := runChild(o, dir, false)
	if err != nil {
		return err
	}
	out := result{Metrics: make(map[string]metricValue)}
	final := untraced
	if o.trace {
		traced, err := runChild(o, dir, true)
		if err != nil {
			return err
		}
		final = mergeTraced(untraced, traced)
	} else {
		for _, m := range endToEnd {
			if !(untraced.Metrics[m.name] > 0) {
				return fmt.Errorf("workload %s reported no %s", o.workload, m.name)
			}
		}
	}
	if paperErr != nil {
		final.problem("paper world: %v", paperErr)
	}
	for _, p := range final.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	// The paper-world check is one more attempted operation, and every
	// failed output check one more failure.
	out.Attempted = final.Attempted + 1
	out.Failed = final.Failed + int64(len(final.Problems))
	out.Correct = len(final.Problems) == 0
	final.set("fail_frac", float64(out.Failed)/float64(out.Attempted))
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, m := range names {
		v, ok := final.Metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", o.workload, m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runChild runs the workload in a fresh process and returns its report.
func runChild(o options, dir string, traced bool) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", tr, "--child", dir,
		"--trace-out", filepath.Join(buildDirName, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s child: %w", o.workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("workload %s child output: %w", o.workload, err)
	}
	return &rep, nil
}

// mergeTraced takes the per-layer numbers from the traced child and the
// user-facing ones from the untraced child, and adds the tracing overhead.
func mergeTraced(untraced, traced *childReport) *childReport {
	out := traced
	out.Metrics["trace.overhead_wall_s"] = traced.Metrics["wall_s"] - untraced.Metrics["wall_s"]
	out.Metrics["trace.overhead_read_p50_us"] = traced.Metrics["read_p50_us"] - untraced.Metrics["read_p50_us"]
	for _, name := range []string{"read_p50_us", "read_p99_us", "read_samples",
		"fresh_p50_ms", "fresh_samples", "max_rps", "disk_mb"} {
		out.Metrics[name] = untraced.Metrics[name]
	}
	out.Problems = append(out.Problems, untraced.Problems...)
	out.Attempted += untraced.Attempted
	out.Failed += untraced.Failed
	return out
}

// runWorkload runs one workload in this process over the inputs in dir,
// which were made at scale sc.
func runWorkload(o options, dir string, sc scale) (*childReport, error) {
	env := &runEnv{
		dir:     dir,
		seed:    o.seed,
		seconds: time.Duration(o.seconds) * time.Second,
		scale:   sc,
	}
	if o.trace {
		env.tr = newTracer()
	}
	rep := newReport()
	if err := workloads[o.workload].run(env, rep); err != nil {
		return nil, err
	}
	if env.tr != nil {
		env.tr.report(rep, env.units)
		if err := env.tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	fillZeros(rep)
	return rep, nil
}

// setPeakRSS sets peak_rss_mb to this process's resident high-water mark
// so far, read from VmHWM in /proc/self/status; a workload calls it at the
// end of its measured phase. getrusage's ru_maxrss cannot stand in for
// it: a child started with os/exec shares its parent's address space
// until exec, and Linux carries that space's high-water mark into the
// child's ru_maxrss, so it would be at least the parent's peak.
func setPeakRSS(rep *childReport) error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return fmt.Errorf("VmHWM: %w", err)
			}
			rep.set("peak_rss_mb", float64(kb)/1024)
			return nil
		}
	}
	return errors.New("no VmHWM in /proc/self/status")
}

// fillZeros reports every per-layer metric the workload left untouched as
// 0: the layer did no work on this workload. End-to-end metrics are never
// filled; a missing one fails the run.
func fillZeros(rep *childReport) {
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.Metrics[m.name] = 0
		}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

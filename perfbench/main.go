// Command perfbench is the repository's benchmark. It runs one workload
// against the similarity engine, checks every answer against a brute-force
// model, and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-uniform --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "measured seconds of the run")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		spansDir = flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	st := stampOf(w.name, *seed, *trace)
	fmt.Println("#", st)

	r := newRun(w, *seed, *seconds)
	var ms, printed []metric
	if *trace == 1 {
		ms, err = r.traced(*spansDir, st)
	} else {
		var rep *report
		if rep, err = r.measure(); err == nil {
			ms, printed = endToEnd(rep)
		}
	}
	if err != nil {
		return err
	}
	failedFrac := float64(r.out.failed) / math.Max(1, float64(r.out.attempted))
	fmt.Printf("failed_frac %.6f (%d of %d operations)\n", failedFrac, r.out.failed, r.out.attempted)
	if r.out.failed > 0 {
		fmt.Println("first failure:", r.out.firstFailure)
	}
	for _, m := range ms {
		fmt.Println(m)
	}
	for _, m := range printed {
		fmt.Println(m, "(printed only)")
	}
	return emit(r.out, ms)
}

// metric is one reported figure with its sample count. module names the
// layer a per-layer metric comes from ("" for end-to-end metrics).
type metric struct {
	module string
	name   string
	unit   string
	value  float64
	n      int
}

func (m metric) String() string {
	kind := "e2e"
	if m.module != "" {
		kind = "layer " + m.module
	}
	return fmt.Sprintf("%-16s %-28s %14.6g %-6s n=%d", kind, m.name, m.value, m.unit, m.n)
}

// emit prints the result line and fails the run when an answer was wrong.
func emit(out outcome, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]value{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed; first: %s", out.failed, out.attempted, out.firstFailure)
	}
	return nil
}

// stampOf identifies the run: workload, seed, commit and host.
func stampOf(workload string, seed int64, trace int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+dirty"
			}
		}
	}
	return fmt.Sprintf("workload=%s seed=%d trace=%d commit=%s cpu=%q nproc=%d gomaxprocs=%d go=%s",
		workload, seed, trace, commit, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// Command khopbench is the repository's benchmark: it runs one of four
// fixed workloads against the system built from this tree, checks every
// output, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 6075, "failed": 0, "metrics": {"op_p50_ms": {"value": 0.41, "unit": "ms"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics, a traced
// run (-trace 1) the per-layer ones; BENCHMARK.json at the repository
// root lists both with their units, directions and bounds, and
// khopbench/README.md explains the workloads and how to compare runs.
// Every time is reported divided by the host factor (hostref.go), so it
// reads as on a host running at a fixed nominal speed.
//
// Run it through khopbench/run.sh from the repository root, which builds
// khopbench and khopd into .bench_build first:
//
//	bash khopbench/run.sh -workload mixed_1k -seed 1 -seconds 20 -trace 0
//	bash khopbench/run.sh -seed 1 -out khopbench/ledger/run.json   # all four workloads
//	bash khopbench/run.sh -compare base.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// khopd is the server binary; work is a scratch directory this run
	// owns and removes; self is this executable, for build children.
	khopd, work, self string
}

// report collects one workload run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	spans             []span
}

// count records one attempted operation.
func (r *report) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records one output check, keeping the reason when it fails.
func (r *report) check(ok bool, format string, args ...any) {
	r.count(ok)
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (build_50k, mixed_1k, read_20k, churn_5k); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
		out      = flag.String("out", "", "append the run to this khopbench/result file (and its spans to <name>.trace.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: -compare base.json change.json")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition; a run checks it lists what khopbench reports, -compare reads its bounds")
		khopdBin = flag.String("khopd", ".bench_build/bin/khopd", "khopd binary the serving workloads start")
		work     = flag.String("work", ".bench_build/work", "directory for the run's scratch state")
		child    = flag.Bool("child-build", false, "run as a build_50k child process (internal)")
		builds   = flag.Int("builds", 0, "Builds a -child-build process times after its cold one (internal)")
	)
	flag.Parse()

	switch {
	case *child:
		exitOn(childBuild(*seed, *builds))
		return
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg()))
		}
		exitOn(runCompare(*spec, flag.Arg(0), flag.Arg(1), os.Stdout))
		return
	}
	if *trace != 0 && *trace != 1 {
		exitOn(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	self, err := os.Executable()
	exitOn(err)
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, khopd: *khopdBin, self: self,
		work: filepath.Join(*work, strconv.Itoa(os.Getpid())),
	}
	if _, err := os.Stat(cfg.khopd); err != nil {
		exitOn(fmt.Errorf("khopd binary: %w (build it with khopbench/run.sh)", err))
	}
	if cfg.seconds < 1 {
		exitOn(fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds))
	}
	// A BENCHMARK.json that has drifted from what this program reports
	// would judge changes by metrics nobody measures.
	exitOn(checkSpec(*spec))

	run := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		exitOn(err)
		run = []workload{w}
	}
	allCorrect := true
	for _, w := range run {
		start := time.Now()
		rep, err := runWorkload(context.Background(), cfg, w)
		exitOn(err)
		for _, e := range rep.errs {
			fmt.Fprintf(os.Stderr, "khopbench: %s: %s\n", w.name, e)
		}
		rec := record(cfg, w, rep, start)
		if *out != "" {
			exitOn(appendResult(*out, rec))
			if cfg.trace {
				exitOn(appendTrace(tracePath(*out), w.name, cfg.seed, rep.spans))
			}
		}
		printTable(os.Stderr, rec, rep.metrics["host.ref_ms"])
		line, err := json.Marshal(rec.line)
		exitOn(err)
		fmt.Println(string(line))
		allCorrect = allCorrect && rec.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runWorkload runs one workload end to end and, when tracing, replays it
// in-process with spans.
func runWorkload(ctx context.Context, cfg config, w workload) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	rep := &report{metrics: map[string]float64{}}
	var in *inputs
	var err error
	if w.name == "build_50k" {
		err = runBuild(cfg, rep)
	} else {
		if in, err = generate(w, cfg.seed, float64(cfg.seconds)); err != nil {
			return nil, err
		}
		err = runServing(ctx, cfg, in, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		if in == nil {
			if in, err = generate(w, cfg.seed, float64(cfg.seconds)); err != nil {
				return nil, err
			}
		}
		// The replay has reference windows of its own, timed in the
		// process that replays.
		m := map[string]float64{}
		stop := sampleHost()
		t := newTracer()
		if w.name == "build_50k" {
			err = traceBuild(ctx, t, in, m)
		} else {
			err = traceServing(ctx, t, in, cfg.work, m)
		}
		rep.check(err == nil, "traced replay: %v", err)
		t.spanMetrics(m)
		normalize(m, stop())
		maps.Copy(rep.metrics, m)
		rep.spans = t.spans
	}
	rep.metrics["op.error_rate"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "khopbench:", err)
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"

	khop "repro"
)

// buildsPerSecond fixes how many back-to-back builds a build_50k run
// times: this many per second of -seconds, whatever the host's speed, so
// every run reports the same percentiles. At -seconds 20 that is 40
// builds, 12-22 s on the host the bounds were set on.
const buildsPerSecond = 2

// buildCount is the number of timed builds in a run of the given length.
func buildCount(seconds int) int { return buildsPerSecond * seconds }

// buildChild is what one build_50k child process reports on stdout.
type buildChild struct {
	// SetupMS is the first, cold Build and BuildsMS are the back-to-back
	// Builds after it, each divided by the host factor of the reference
	// windows timed just before and just after it.
	SetupMS  float64   `json:"setup_ms"`
	BuildsMS []float64 `json:"builds_ms"`
	RefMS    float64   `json:"ref_ms"` // the median reference window
	RSSMB    float64   `json:"rss_mb"` // VmHWM at exit
	// Checks counts the output checks run; Failures are the ones that
	// did not hold.
	Checks   int      `json:"checks"`
	Failures []string `json:"failures"`
}

// runBuild measures build_50k. Each set-up is a fresh child process
// generating the network and timing its first Build; a last child then
// builds buildCount times back to back. Children keep the parent's
// allocations and GC out of the numbers. The children's times arrive
// already divided by the host factor.
func runBuild(cfg config, rep *report) error {
	var setups []float64
	var spent time.Duration
	var last buildChild
	for measured := false; !measured; {
		builds := 0
		if measured = !moreSetups(len(setups), spent); measured {
			builds = buildCount(cfg.seconds)
		}
		start := time.Now()
		out, err := buildProcess(cfg, builds)
		if err != nil {
			return err
		}
		spent += time.Since(start)
		setups = append(setups, out.SetupMS/1e3)
		rep.attempted += out.Checks
		rep.failed += len(out.Failures)
		rep.errs = append(rep.errs, out.Failures...)
		last = out
	}
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = last.RSSMB
	m["host.ref_ms"] = last.RefMS
	setOpMetrics(m, last.BuildsMS, buildCount(cfg.seconds), level{})
	// At the nominal speed the builds take their sum back to back.
	var sum float64
	for _, ms := range last.BuildsMS {
		sum += ms
	}
	m["ops_per_s"] = float64(len(last.BuildsMS)) / (sum / 1e3)
	sorted := sortedCopy(last.BuildsMS)
	m["op.build_p50_s"] = at(sorted, p50) / 1e3
	m["op.build_p90_s"] = at(sorted, p90) / 1e3
	m["loadgen.sent_ops"] = float64(len(sorted))
	return nil
}

// buildProcess runs one child that times builds Builds after its cold
// one, and decodes its report.
func buildProcess(cfg config, builds int) (buildChild, error) {
	var out buildChild
	cmd := exec.Command(cfg.self, "-child-build", "-seed", strconv.FormatInt(cfg.seed, 10),
		"-builds", strconv.Itoa(builds))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The build is serial (WithParallel(1)); one P keeps the collector
	// on the build's own thread. With two, its worker ran on the second
	// vCPU, which on a 2-vCPU host can share the core: builds ran ~30%
	// slower and spread twice as wide across runs.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("build child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("decoding build child report: %w", err)
	}
	return out, nil
}

// childBuild is the body of a build_50k child: generate the network,
// time the cold Build, then Build builds times back to back, checking
// that VerifyResult holds on the first and last build and that every
// build's heads and CDS equal the first one's. A reference window
// precedes and follows every timed Build.
func childBuild(seed int64, builds int) error {
	w, err := workloadByName("build_50k")
	if err != nil {
		return err
	}
	in, err := generate(w, seed, 0)
	if err != nil {
		return err
	}
	eng, err := newEngine(in.graph)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var out buildChild
	check := func(ok bool, format string, args ...any) {
		out.Checks++
		if !ok {
			out.Failures = append(out.Failures, fmt.Sprintf(format, args...))
		}
	}
	rt := newRefTimer()
	var first, res *khop.Result
	if out.SetupMS, err = rt.time(func() (err error) { first, err = eng.Build(ctx); return err }); err != nil {
		return err
	}
	err = khop.VerifyResult(in.graph, first)
	check(err == nil, "first build fails VerifyResult: %v", err)
	res = first
	for i := range builds {
		ms, err := rt.time(func() (err error) { res, err = eng.Build(ctx); return err })
		if err != nil {
			return err
		}
		out.BuildsMS = append(out.BuildsMS, ms)
		check(slices.Equal(res.Heads, first.Heads) && slices.Equal(res.CDS, first.CDS),
			"build %d differs from the first build", i+1)
	}
	if builds > 0 {
		err = khop.VerifyResult(in.graph, res)
		check(err == nil, "last build fails VerifyResult: %v", err)
	}
	out.RefMS = median(rt.windows)
	if out.RSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

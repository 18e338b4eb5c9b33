package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	khop "repro"
	"repro/client"
	"repro/internal/server"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustGenerate(t *testing.T, name string, seed int64, seconds float64) *inputs {
	t.Helper()
	in, err := generate(mustWorkload(t, name), seed, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := mustGenerate(t, "churn_5k", 7, 3)
	b := mustGenerate(t, "churn_5k", 7, 3)
	c := mustGenerate(t, "churn_5k", 8, 3)
	same := func(x, y *inputs) bool {
		return reflect.DeepEqual(x.reads, y.reads) && reflect.DeepEqual(x.batches, y.batches) &&
			reflect.DeepEqual(x.reserved, y.reserved) && reflect.DeepEqual(x.graph.Edges(), y.graph.Edges())
	}
	if !same(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	if same(a, c) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
	if len(a.reads) != 300 || len(a.batches) != 3 {
		t.Fatalf("3s of churn_5k: %d reads and %d batches, want 300 and 3", len(a.reads), len(a.batches))
	}
}

// Reads are drawn from the largest component of G − R, and churn only
// touches R, so every read pair stays connected whatever churn did.
func TestReadPairsAreConnectedWithoutTheReservedSet(t *testing.T) {
	for _, name := range []string{"mixed_1k", "read_20k"} {
		in := mustGenerate(t, name, 3, 2)
		gone := make([]bool, in.graph.N())
		for _, v := range in.reserved {
			gone[v] = true
		}
		comp := make(map[int]int, len(in.largest))
		for _, v := range in.largest {
			comp[v] = 0
		}
		for _, o := range in.reads {
			if gone[o.src] || gone[o.dst] {
				t.Fatalf("%s: read %d→%d touches the reserved set", name, o.src, o.dst)
			}
			if _, ok := comp[o.src]; !ok {
				t.Fatalf("%s: read source %d outside the largest component", name, o.src)
			}
			if _, ok := comp[o.dst]; !ok {
				t.Fatalf("%s: read target %d outside the largest component", name, o.dst)
			}
		}
		// The component itself must be connected in G − R.
		seen := map[int]bool{in.largest[0]: true}
		queue := []int{in.largest[0]}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range in.graph.Neighbors(u) {
				if !gone[v] && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if len(seen) != len(in.largest) {
			t.Fatalf("%s: largest component has %d nodes, a BFS in G − R reaches %d", name, len(in.largest), len(seen))
		}
	}
}

func TestChurnStreamsReplayWithoutErrors(t *testing.T) {
	for _, name := range []string{"mixed_1k", "churn_5k"} {
		in := mustGenerate(t, name, 11, 4)
		eng, err := newEngine(in.graph)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := eng.Build(ctx); err != nil {
			t.Fatal(err)
		}
		for i, b := range in.batches {
			reports, err := eng.Apply(ctx, khopEvents(b.events)...)
			if err != nil || len(reports) != len(b.events) {
				t.Fatalf("%s batch %d: %d of %d events applied: %v", name, i, len(reports), len(b.events), err)
			}
		}
		if err := khop.VerifyResult(eng.CurrentGraph(), eng.Result()); err != nil {
			t.Fatalf("%s: after churn: %v", name, err)
		}
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{1, "p50"}, {19, "p50"}, {20, "p50"}, {39, "p50"}, {40, "p75"}, {99, "p75"},
		{100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"},
	} {
		if got := tailLevel(c.n, level{}).name; got != c.want {
			t.Errorf("tailLevel(%d) = %s, want %s", c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		n       int
		highest level
		want    string
	}{
		{10000, p90, "p90"}, {1000, p90, "p90"}, {500, p90, "p90"}, {99, p90, "p75"}, {10000, p999, "p99.9"},
	} {
		if got := tailLevel(c.n, c.highest).name; got != c.want {
			t.Errorf("tailLevel(%d, %s) = %s, want %s", c.n, c.highest.name, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := at(xs, tailLevel(len(xs), level{})); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := at(xs, p50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

// The spread rule is stated with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 3.1},
		{[]float64{5, 1}, 0, 6},
		{[]float64{0.9, 1.0, 1.05, 1.1, 1.2, 0.95, 1.3, 1.0, 0.99, 1.02, 1.01}, 0.99, 1.1},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "op_p50_ms", better: "lower", bound: 0.10}
	layer := metricSpec{name: "engine.apply_ms", better: "lower", bound: -1}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10.0}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cmp := func(a, b []float64) comparison {
		p := make([][2]float64, len(a))
		for i := range a {
			p[i] = [2]float64{a[i], b[i]}
		}
		return comparison{a: a, b: b, pairs: p, interleaved: true}
	}
	apart := cmp(base, shift(base, 0.8))
	apart.interleaved = false
	broken := cmp(base, shift(base, 0.8))
	broken.invalid = true
	noisy := []float64{5, 15, 8, 12, 6, 14, 7, 13, 10, 10}
	for _, c := range []struct {
		name string
		s    metricSpec
		c    comparison
		want string
	}{
		{"faster everywhere", lower, cmp(base, shift(base, 0.8)), "better"},
		{"slower beyond the bound", lower, cmp(base, shift(base, 1.2)), "worse"},
		{"slower within the bound", lower, cmp(base, shift(base, 1.05)), "same"},
		{"unchanged", lower, cmp(base, base), "same"},
		{"spread wider than the bound", lower, cmp(noisy, shift(noisy, 0.97)), "unresolved"},
		{"wide spread but fully separated", lower, cmp(noisy, shift(noisy, 0.2)), "better"},
		{"unbounded layer slower in every pair", layer, cmp(base, shift(base, 1.05)), "worse"},
		{"higher is better", metricSpec{better: "higher", bound: 0.1}, cmp(base, shift(base, 1.2)), "better"},
		{"faster but not interleaved", lower, apart, "unresolved"},
		{"faster but failing checks", lower, broken, "invalid"},
	} {
		if got := verdict(c.s, c.c); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// A run counts against a change when it is incorrect or when the change
// failed more ops in total than the base.
func TestInvalidChange(t *testing.T) {
	run := func(correct bool, failed int) runRecord {
		return runRecord{line: line{Correct: correct, Attempted: 100, Failed: failed}}
	}
	ok := []runRecord{run(true, 0), run(true, 0)}
	for _, c := range []struct {
		name string
		b    []runRecord
		want bool
	}{
		{"all correct", ok, false},
		{"one incorrect run", []runRecord{run(true, 0), run(false, 0)}, true},
		{"more failed ops", []runRecord{run(true, 0), run(true, 1)}, true},
	} {
		if got := invalidChange(ok, c.b); got != c.want {
			t.Errorf("%s: invalidChange = %v, want %v", c.name, got, c.want)
		}
	}
}

// Pairs must run back to back: alternating sides per seed passes, two
// sets run one after the other do not, and neither do unpaired runs or
// runs without a start time.
func TestInterleavedPairs(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(seed int64, minute int) runRecord {
		return runRecord{Seed: seed, Start: t0.Add(time.Duration(minute) * time.Minute).Format(time.RFC3339Nano)}
	}
	check := func(name string, a, b []runRecord, want bool) {
		t.Helper()
		if got := interleaved(a, b, pairBySeed(a, b)); got != want {
			t.Errorf("%s: interleaved = %v, want %v", name, got, want)
		}
	}
	check("alternating order", []runRecord{at(1, 0), at(2, 3), at(3, 4)}, []runRecord{at(1, 1), at(2, 2), at(3, 5)}, true)
	check("set after set", []runRecord{at(1, 0), at(2, 1), at(3, 2)}, []runRecord{at(1, 3), at(2, 4), at(3, 5)}, false)
	check("unpaired run", []runRecord{at(1, 0), at(2, 2)}, []runRecord{at(1, 1)}, false)
	noStart := at(2, 3)
	noStart.Start = ""
	check("missing start", []runRecord{at(1, 0), at(2, 2)}, []runRecord{at(1, 1), noStart}, false)
}

// The tail percentile is fixed by the schedule: a run with a slower host
// or a failed op reports the same percentile as any other, and
// build_50k's build count does not depend on the host's speed.
func TestTailPercentileFollowsTheSchedule(t *testing.T) {
	lat := make([]float64, 40)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	full, short := map[string]float64{}, map[string]float64{}
	setOpMetrics(full, lat, len(lat), level{})
	setOpMetrics(short, lat[1:], len(lat), level{})
	if full["op.tail_pct"] != 75 || short["op.tail_pct"] != 75 {
		t.Errorf("tail percentile %v and %v for 40 planned ops, want 75 for both", full["op.tail_pct"], short["op.tail_pct"])
	}
	if got := buildCount(20); got != 40 {
		t.Errorf("buildCount(20) = %d, want 40", got)
	}
	for name, want := range map[string]level{"mixed_1k": p99, "read_20k": p90, "churn_5k": p99} {
		in := mustGenerate(t, name, 1, 20)
		if n := len(in.reads) + len(in.batches); tailLevel(n, in.w.maxTail) != want {
			t.Errorf("%s at 20 s: %d planned ops give %s, want %s", name, n, tailLevel(n, in.w.maxTail).name, want.name)
		}
	}
	if tailLevel(buildCount(20), level{}) != p75 {
		t.Errorf("build_50k at 20 s: %d builds give %s, want p75", buildCount(20), tailLevel(buildCount(20), level{}).name)
	}
}

// The host reference does the same work in every run, and normalizing
// divides exactly the time metrics by the host factor.
func TestHostReference(t *testing.T) {
	if a, b := newRefGraph().work(), newRefGraph().work(); a != b || a == 0 {
		t.Fatalf("reference checksums %d and %d, want equal and non-zero", a, b)
	}
	m := map[string]float64{"op_p50_ms": 10, "setup_s": 2, "routing.route_us": 8,
		"peak_rss_mb": 50, "ops_per_s": 100, "cluster.heads": 7}
	normalize(m, 2*refNominalMS)
	want := map[string]float64{"op_p50_ms": 5, "setup_s": 1, "routing.route_us": 4,
		"peak_rss_mb": 50, "ops_per_s": 100, "cluster.heads": 7}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("normalize at twice the nominal window: %v, want %v", m, want)
	}
	rt := newRefTimer()
	if _, err := rt.time(func() error { return nil }); err != nil || len(rt.windows) != 2 {
		t.Errorf("a timed call left %d windows and error %v, want 2 and nil", len(rt.windows), err)
	}
	// Stopped before its first tick, a sampler still times one window.
	if ms := sampleHost()(); ms <= 0 {
		t.Errorf("sampler stopped at once reported a %v ms window, want > 0", ms)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics khopbench runs and reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	if err := checkSpec("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// A short mixed_1k run against an in-process server exercises the
// generator, every response check and the snapshot oracle.
func TestMixedSmokeAgainstInProcessServer(t *testing.T) {
	in := mustGenerate(t, "mixed_1k", 5, 2)
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	k := &khopd{api: client.New(ts.URL, client.WithHTTPClient(ts.Client()))}
	ctx := context.Background()
	if _, err := k.api.Create(ctx, createRequest(in)); err != nil {
		t.Fatal(err)
	}
	before, err := scrape(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	lr := runLoad(ts.URL, in)
	after, err := scrape(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range lr.errs {
		t.Error(e)
	}
	var acked []int
	for i, r := range lr.batches {
		if r.ok {
			acked = append(acked, i)
		}
	}
	if len(acked) != len(in.batches) {
		t.Fatalf("%d of %d batches acked", len(acked), len(in.batches))
	}
	want, err := oracleSnapshot(in, acked)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{metrics: map[string]float64{}}
	if err := checkSnapshot(ctx, k, want, rep, "after load"); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatal(rep.errs)
	}
	m := rep.metrics
	opMetrics(m, lr, in)
	khopdMetrics(m, before, after)
	if m["op.samples"] != float64(len(in.reads)+len(in.batches)) {
		t.Errorf("%v latency samples, want one per op", m["op.samples"])
	}
	for _, name := range []string{"op_p50_ms", "op_tail_ms", "ops_per_s", "khopd.route_p50_ms", "khopd.apply_p50_ms"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
}

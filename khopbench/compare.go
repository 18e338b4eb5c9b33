package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// benchSpec is the part of BENCHMARK.json khopbench reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the spec's metrics, end-to-end first; a per-layer
// metric has bound -1.
func (s *benchSpec) metrics() []metricSpec {
	var out []metricSpec
	for _, m := range s.EndToEnd {
		out = append(out, metricSpec{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, m := range s.PerLayer {
		out = append(out, metricSpec{name: m.Name, unit: m.Unit, better: m.Better, bound: -1})
	}
	return out
}

// checkSpec fails unless BENCHMARK.json lists exactly the workloads and
// metrics khopbench runs and reports, with the same reasons, units,
// directions and bounds.
func checkSpec(path string) error {
	s, err := loadSpec(path)
	if err != nil {
		return err
	}
	got := s.metrics()
	want := append([]metricSpec(nil), endToEnd...)
	for _, m := range perLayer {
		m.bound = -1
		want = append(want, m)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s lists %d metrics, khopbench reports %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s metric %d is %+v, khopbench reports %+v", path, i, got[i], want[i])
		}
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, khopbench runs %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := s.Workloads[i]; g.Name != w.name || g.Why != w.why {
			return fmt.Errorf("%s workload %d is %+v, khopbench runs {%s %s}", path, i, g, w.name, w.why)
		}
	}
	return nil
}

// runCompare prints one row per (workload, metric) present in both
// result files: each side's median and quartiles, the share of paired
// runs the change won, the metric's bound and the verdict, then a note
// for every workload whose runs cannot support a verdict. Runs pair by
// seed, in file order among runs of equal seed.
func runCompare(specPath, basePath, changePath string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	specs := spec.metrics()
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	change, err := readResult(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\twon\tbound\tverdict")
	var notes []string
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			a, b := runsOf(base, wl.name, traced), runsOf(change, wl.name, traced)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			pairs := pairBySeed(a, b)
			c := comparison{interleaved: interleaved(a, b, pairs), invalid: invalidChange(a, b)}
			kind := "untraced"
			if traced {
				kind = "traced"
			}
			if c.invalid {
				notes = append(notes, fmt.Sprintf("%s (%s): a change run failed an output check or the change failed more ops than the base; every verdict is invalid", wl.name, kind))
			} else if !c.interleaved {
				notes = append(notes, fmt.Sprintf("%s (%s): the runs are not interleaved pairs; every verdict is unresolved", wl.name, kind))
			}
			for _, s := range specs {
				if (s.bound < 0) != traced {
					continue
				}
				c.a, c.b, c.pairs = values(a, s.name), values(b, s.name), pairValues(a, b, pairs, s.name)
				if len(c.a) < 2 || len(c.b) < 2 {
					continue
				}
				row, err := compareMetric(s, c)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", wl.name, s.name, s.unit, row)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	return nil
}

// runsOf returns a document's runs of one workload, traced or not.
func runsOf(doc *resultDoc, workload string, traced bool) []runRecord {
	var out []runRecord
	for _, r := range doc.Runs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

// pairBySeed pairs each base run with the first unpaired change run of
// the same seed; a pair is (index in a, index in b).
func pairBySeed(a, b []runRecord) [][2]int {
	used := make([]bool, len(b))
	var pairs [][2]int
	for i, ra := range a {
		for j, rb := range b {
			if !used[j] && rb.Seed == ra.Seed {
				used[j] = true
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	return pairs
}

// interleaved reports whether every run is paired and the two runs of
// each pair started one right after the other, with no run of either
// side between them. Only then does a drift of the host's speed, which
// on a shared machine lasts minutes, hit both sides of a pair alike.
func interleaved(a, b []runRecord, pairs [][2]int) bool {
	if len(pairs) != len(a) || len(pairs) != len(b) {
		return false
	}
	type run struct {
		start time.Time
		side  int
		index int
	}
	var all []run
	for side, rs := range [][]runRecord{a, b} {
		for i, r := range rs {
			t, err := time.Parse(time.RFC3339Nano, r.Start)
			if err != nil {
				return false
			}
			all = append(all, run{t, side, i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	pos := [2][]int{make([]int, len(a)), make([]int, len(b))}
	for p, r := range all {
		pos[r.side][r.index] = p
	}
	for _, pr := range pairs {
		if d := pos[0][pr[0]] - pos[1][pr[1]]; d != 1 && d != -1 {
			return false
		}
	}
	return true
}

// invalidChange reports whether the change side cannot be judged: one
// of its runs failed an output check, or it failed more ops than the
// base did. A gain bought with wrong answers is no gain.
func invalidChange(a, b []runRecord) bool {
	failedA, failedB := 0, 0
	for _, r := range a {
		failedA += r.Failed
	}
	for _, r := range b {
		failedB += r.Failed
		if !r.Correct {
			return true
		}
	}
	return failedB > failedA
}

// values collects one metric from runs that report it.
func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairValues is one metric's (base, change) values of each pair.
func pairValues(a, b []runRecord, pairs [][2]int, metric string) [][2]float64 {
	var out [][2]float64
	for _, p := range pairs {
		va, okA := a[p[0]].Metrics[metric]
		vb, okB := b[p[1]].Metrics[metric]
		if okA && okB {
			out = append(out, [2]float64{va.Value, vb.Value})
		}
	}
	return out
}

// comparison is what one metric's verdict rests on.
type comparison struct {
	a, b  []float64    // every base and change value
	pairs [][2]float64 // (base, change) values of the runs paired by seed
	// interleaved: see interleaved; invalid: see invalidChange.
	interleaved, invalid bool
}

// compareMetric formats one comparison row after the metric columns.
func compareMetric(s metricSpec, c comparison) (string, error) {
	aq1, aq3, err := quartiles(c.a)
	if err != nil {
		return "", err
	}
	bq1, bq3, err := quartiles(c.b)
	if err != nil {
		return "", err
	}
	won := 0
	for _, p := range c.pairs {
		if gain(s, p[0], p[1]) > 0 {
			won++
		}
	}
	bound := "-"
	if s.bound >= 0 {
		bound = fmt.Sprintf("%g", s.bound)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\t%s",
		median(c.a), aq1, aq3, median(c.b), bq1, bq3, won, len(c.pairs), bound, verdict(s, c)), nil
}

// gain is how much better change reads than base, in the metric's unit
// (positive = better).
func gain(s metricSpec, base, change float64) float64 {
	if s.better == "higher" {
		return change - base
	}
	return base - change
}

// verdict applies the acceptance rules:
//
//   - invalid: the change failed output checks or more ops (invalidChange);
//   - unresolved: the runs are not interleaved pairs; or the base runs'
//     spread (IQR over median) exceeds the metric's bound, unless every
//     change run reads better than every base run;
//   - better: the change won at least 9/10 of the paired runs and the
//     medians differ by more than the base runs' IQR;
//   - worse: a bounded metric's median got worse by more than the bound
//     (a share of the base median); an unbounded one lost at least 9/10
//     of the pairs by more than the base IQR;
//   - same: none of these.
func verdict(s metricSpec, c comparison) string {
	if c.invalid {
		return "invalid"
	}
	aq1, aq3, err := quartiles(c.a)
	if err != nil || len(c.pairs) == 0 || !c.interleaved {
		return "unresolved"
	}
	iqr, ma, mb := aq3-aq1, median(c.a), median(c.b)
	separated := true
	for _, x := range c.a {
		for _, y := range c.b {
			if gain(s, x, y) <= 0 {
				separated = false
			}
		}
	}
	if s.bound >= 0 && ma != 0 && iqr/math.Abs(ma) > s.bound && !separated {
		return "unresolved"
	}
	won, lost := 0, 0
	for _, p := range c.pairs {
		switch g := gain(s, p[0], p[1]); {
		case g > 0:
			won++
		case g < 0:
			lost++
		}
	}
	g := gain(s, ma, mb)
	switch {
	case 10*won >= 9*len(c.pairs) && g > iqr:
		return "better"
	case s.bound >= 0 && -g > s.bound*math.Abs(ma):
		return "worse"
	case s.bound < 0 && 10*lost >= 9*len(c.pairs) && -g > iqr:
		return "worse"
	}
	return "same"
}

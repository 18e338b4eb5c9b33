package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// The result document. Like khopload/summary it is byte-stable: fixed
// field order, sorted metric keys, two-space indentation and a trailing
// newline, so equal runs encode to equal bytes. Any change of shape
// bumps resultVersion.
const (
	resultSchema = "khopbench/result"
	// resultVersion 1: schema, version, host, runs[] of {workload, seed,
	// seconds, trace, start, correct, attempted, failed, metrics{name:
	// {value, unit}}}; start is the run's UTC start in RFC 3339 with
	// nanoseconds.
	resultVersion = 1
)

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object a run prints as its last line.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run in a result document.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Start orders runs in time, which -compare needs to tell interleaved
	// pairs from runs made apart.
	Start string `json:"start"`
	line
}

// host identifies the machine a document's runs were measured on.
type host struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

type resultDoc struct {
	Schema  string      `json:"schema"`
	Version int         `json:"version"`
	Host    host        `json:"host"`
	Runs    []runRecord `json:"runs"`
}

// reported is the metric set a run reports: the end-to-end set
// untraced, the per-layer set traced.
func reported(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// record is the run that started at start as reported; a layer a
// workload does not exercise reads 0.
func record(cfg config, w workload, rep *report, start time.Time) runRecord {
	specs := reported(cfg.trace)
	l := line{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		l.Metrics[s.name] = metricValue{Value: rep.metrics[s.name], Unit: s.unit}
	}
	return runRecord{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Start: start.UTC().Format(time.RFC3339Nano), line: l}
}

// printTable writes a header with the run's outcome and its reference
// window (host.ref_ms, raw), then one "metric value unit" row per metric.
func printTable(w io.Writer, rec runRecord, refMS float64) {
	fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d host.ref_ms=%.4g\n", rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed, refMS)
	for _, s := range reported(rec.Trace) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.name, rec.Metrics[s.name].Value, s.unit)
	}
}

func currentHost() host {
	h := host{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// readResult loads a result document.
func readResult(path string) (*resultDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != resultSchema || doc.Version != resultVersion {
		return nil, fmt.Errorf("%s: %s v%d, want %s v%d", path, doc.Schema, doc.Version, resultSchema, resultVersion)
	}
	return &doc, nil
}

// appendResult adds rec to the document at path, creating it with this
// host's block; runs from another host go to another document.
func appendResult(path string, rec runRecord) error {
	h := currentHost()
	doc, err := readResult(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		doc = &resultDoc{Schema: resultSchema, Version: resultVersion, Host: h}
	case err != nil:
		return err
	case doc.Host != h:
		return fmt.Errorf("%s was measured on another host (%+v); write this run to a new file", path, doc.Host)
	}
	doc.Runs = append(doc.Runs, rec)
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// tracePath is where a result file's spans go: x.json → x.trace.json.
func tracePath(out string) string {
	return strings.TrimSuffix(out, ".json") + ".trace.json"
}

// traceDoc holds the raw spans of traced runs, each as [name, start_ns,
// end_ns, parent, op]; parent indexes the run's span list (-1 none) and
// op is the scheduled op the span served (-1 for set-up work).
type traceDoc struct {
	Schema  string     `json:"schema"`
	Version int        `json:"version"`
	Runs    []traceRun `json:"runs"`
}

type traceRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    [][]any `json:"spans"`
}

func appendTrace(path, workload string, seed int64, spans []span) error {
	doc := traceDoc{Schema: "khopbench/trace", Version: 1}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	run := traceRun{Workload: workload, Seed: seed, Spans: make([][]any, len(spans))}
	for i, s := range spans {
		run.Spans[i] = []any{s.name, s.start, s.end, s.parent, s.op}
	}
	doc.Runs = append(doc.Runs, run)
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

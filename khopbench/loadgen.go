package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/codec"
)

// opResult is the outcome of one scheduled op. Latency runs from the
// op's due time to the end of its response body, so a stall charges
// every op queued behind it; lag is how late the generator itself sent
// the op after it could have (after its due time and after its
// connection came free).
type opResult struct {
	latency, lag time.Duration
	ok           bool
}

// loadRun is the outcome of one load phase.
type loadRun struct {
	reads, batches []opResult // aligned with inputs.reads / inputs.batches
	start, end     time.Time
	errs           []string
}

// lane is one HTTP connection and the goroutine that drives it.
type lane struct {
	client *http.Client
	// bodyEnd is when the last response body finished arriving; a
	// response's decoding and checks happen after it and are not timed.
	bodyEnd time.Time
}

func newLane() *lane {
	return &lane{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// runLoad offers the workload's schedule open loop: op i of a stream is
// due at start + its due offset whatever happened before it. Churning
// workloads use one read and one write connection, read-only ones two
// read connections that take the next due read whichever is free.
// Every response is checked as it arrives.
func runLoad(base string, in *inputs) *loadRun {
	lr := &loadRun{reads: make([]opResult, len(in.reads)), batches: make([]opResult, len(in.batches))}
	var errMu sync.Mutex
	fail := func(format string, args ...any) {
		errMu.Lock()
		if len(lr.errs) < 20 {
			lr.errs = append(lr.errs, fmt.Sprintf(format, args...))
		}
		errMu.Unlock()
	}

	bodies := make([][]byte, len(in.batches))
	for i, b := range in.batches {
		bodies[i] = eventsBody(b.events)
	}
	prefix := base + depPath
	readLanes := 2
	if len(in.batches) > 0 {
		readLanes = 1
	}

	// A short lead lets every lane reach its first wait before op 0 is
	// due.
	lr.start = time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	var nextRead, nextBatch atomic.Int64
	for i := 0; i < readLanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newLane().drive(lr.start, in.reads, &nextRead, lr.reads, func(l *lane, i int) error {
				return l.read(prefix, in, &in.reads[i])
			}, fail)
		}()
	}
	if len(in.batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newLane().drive(lr.start, in.batches, &nextBatch, lr.batches, func(l *lane, i int) error {
				return l.churn(prefix, bodies[i], len(in.batches[i].events))
			}, fail)
		}()
	}
	wg.Wait()
	lr.end = time.Now()
	return lr
}

// drive takes ops from the shared queue in due order until it is empty.
// send performs and checks op i; an error is a failed request or check.
func (l *lane) drive(start time.Time, ops []op, next *atomic.Int64, out []opResult,
	send func(l *lane, i int) error, fail func(string, ...any)) {
	defer l.client.CloseIdleConnections()
	for {
		i := int(next.Add(1) - 1)
		if i >= len(ops) {
			return
		}
		picked := time.Now()
		due := start.Add(time.Duration(ops[i].due * float64(time.Second)))
		sleepUntil(due)
		ready := due
		if picked.After(due) {
			ready = picked
		}
		sent := time.Now()
		err := send(l, i)
		out[i] = opResult{latency: l.bodyEnd.Sub(due), lag: sent.Sub(ready), ok: err == nil}
		if err != nil {
			fail("%s op %d: %v", ops[i].kind, i, err)
		}
	}
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. An idle
// Go process wakes timers from an epoll_wait whose timeout has
// millisecond granularity, which would make every op up to a
// millisecond late; the kernel's high-resolution sleep is late by
// microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// read sends one route or broadcast query and checks the answer.
func (l *lane) read(prefix string, in *inputs, o *op) error {
	url := fmt.Sprintf("%s/broadcast?src=%d", prefix, o.src)
	if o.kind == opRoute {
		url = fmt.Sprintf("%s/route?src=%d&dst=%d", prefix, o.src, o.dst)
	}
	raw, err := l.roundTrip(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if o.kind == opRoute {
		var rr api.RouteResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			return fmt.Errorf("decoding route: %w", err)
		}
		return checkRoute(in, o.src, o.dst, rr.Route, rr.Hops)
	}
	var br api.BroadcastResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return fmt.Errorf("decoding broadcast: %w", err)
	}
	return checkBroadcast(in, o.src, br.Reached)
}

// churn posts one event batch and checks it applied whole.
func (l *lane) churn(prefix string, body []byte, size int) error {
	raw, err := l.roundTrip(http.MethodPost, prefix+"/events", body)
	if err != nil {
		return err
	}
	var er api.EventsResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		return fmt.Errorf("decoding events: %w", err)
	}
	if er.Applied != size {
		return fmt.Errorf("batch applied %d of %d events", er.Applied, size)
	}
	return nil
}

// roundTrip sends one request and reads the whole body, stamping
// bodyEnd; any status but 200 is an error.
func (l *lane) roundTrip(method, url string, body []byte) ([]byte, error) {
	defer func() { l.bodyEnd = time.Now() }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// eventsBody is the JSON body of one churn batch.
func eventsBody(events []codec.Event) []byte {
	req := api.EventsRequest{Events: make([]api.EventRequest, len(events))}
	for i, ev := range events {
		req.Events[i] = api.EventRequest{Kind: ev.Kind.String(), Node: ev.Node, Neighbors: ev.Neighbors}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return raw
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
)

// deploymentID names the one deployment every serving workload creates;
// depPath is its API path.
const (
	deploymentID = "bench"
	depPath      = "/v1/deployments/" + deploymentID
)

// khopd is one running server child.
type khopd struct {
	cmd *exec.Cmd
	// api carries the harness's control requests (health, create,
	// snapshot, metrics), never the measured load.
	api *client.Client
}

// addrWriter receives khopd's log on stderr and hands the listen address
// from its "serving on" line to ready; everything else is discarded.
// os/exec copies the pipe from a single goroutine, so Write is never
// called concurrently.
type addrWriter struct {
	buf   []byte
	found bool
	ready chan string
}

func (a *addrWriter) Write(p []byte) (int, error) {
	if a.found {
		return len(p), nil
	}
	a.buf = append(a.buf, p...)
	for {
		line, rest, ok := bytes.Cut(a.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		a.buf = rest
		if _, after, ok := strings.Cut(string(line), "serving on "); ok {
			addr, _, _ := strings.Cut(after, " ")
			a.found = true
			a.buf = nil
			a.ready <- addr
			return len(p), nil
		}
	}
}

// startKhopd execs the server on an ephemeral loopback port and waits
// for its listener. stateDir empty means in-memory.
func startKhopd(bin, stateDir string) (*khopd, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir, "-wal-sync", "interval")
	}
	cmd := exec.Command(bin, args...)
	aw := &addrWriter{ready: make(chan string, 1)}
	cmd.Stdout = io.Discard
	cmd.Stderr = aw
	// The server dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting khopd: %w", err)
	}
	k := &khopd{cmd: cmd}
	select {
	case addr := <-aw.ready:
		k.api = client.New("http://"+addr, client.WithHTTPClient(&http.Client{Timeout: 60 * time.Second}))
		return k, nil
	case <-time.After(30 * time.Second):
		k.kill()
		return nil, errors.New("khopd did not report its listen address within 30s")
	}
}

// kill stops the server with SIGKILL — the crash the durable workload
// recovers from — and waits for it to exit.
func (k *khopd) kill() {
	k.cmd.Process.Kill()
	k.cmd.Wait()
}

// peakRSSMB reads VmHWM of a live process from /proc, in MB (2^20 B).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// waitHealthy polls /v1/healthz until ok(h) holds.
func (k *khopd) waitHealthy(ctx context.Context, ok func(api.Health) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		h, err := k.api.Health(ctx)
		if err == nil {
			if h.Status == "ok" && ok(h) {
				return nil
			}
			err = fmt.Errorf("healthz not ready: %+v", h)
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("khopd never became healthy: %w", last)
}

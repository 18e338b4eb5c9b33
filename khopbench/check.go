package main

import (
	"bytes"
	"context"
	"fmt"

	khop "repro"
	"repro/internal/codec"
)

// checkRoute accepts a route that starts at src, ends at dst, reports
// hops == len-1, and only uses links of the union topology.
func checkRoute(in *inputs, src, dst int, route []int, hops int) error {
	if len(route) == 0 || route[0] != src || route[len(route)-1] != dst {
		return fmt.Errorf("route %d→%d: endpoints of %v", src, dst, route)
	}
	if hops != len(route)-1 {
		return fmt.Errorf("route %d→%d: hops %d for a %d-node path", src, dst, hops, len(route))
	}
	for i := 0; i+1 < len(route); i++ {
		u, v := route[i], route[i+1]
		if u < 0 || u >= len(in.union) {
			return fmt.Errorf("route %d→%d: node %d out of range", src, dst, u)
		}
		if _, ok := in.union[u][int32(v)]; !ok {
			return fmt.Errorf("route %d→%d: hop (%d,%d) is not a link", src, dst, u, v)
		}
	}
	return nil
}

// checkBroadcast accepts a broadcast that reached at least src's
// component of G − R and at most its component of the union topology;
// src is always drawn from the largest component of G − R.
func checkBroadcast(in *inputs, src, reached int) error {
	if reached < in.reachMin || reached > in.reachMax {
		return fmt.Errorf("broadcast from %d reached %d nodes, want %d..%d", src, reached, in.reachMin, in.reachMax)
	}
	return nil
}

// oracleSnapshot replays the workload in-process: an Engine fed the same
// edges and the acked churn batches (indices into in.batches, in order),
// encoded the way khopd encodes a deployment it built.
func oracleSnapshot(in *inputs, acked []int) ([]byte, error) {
	eng, err := newEngine(in.graph)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := eng.Build(ctx); err != nil {
		return nil, fmt.Errorf("oracle build: %w", err)
	}
	for _, i := range acked {
		if _, err := eng.Apply(ctx, khopEvents(in.batches[i].events)...); err != nil {
			return nil, fmt.Errorf("oracle batch %d: %w", i, err)
		}
	}
	return encodeSnapshot(eng)
}

// newEngine is the engine every workload builds: k = 2, AC-LMST, serial.
// Results do not depend on the worker count, so the oracle matches a
// khopd that builds in parallel.
func newEngine(g *khop.Graph) (*khop.Engine, error) {
	return khop.NewEngine(g, khop.WithK(clusterK), khop.WithAlgorithm(khop.ACLMST), khop.WithParallel(1))
}

func encodeSnapshot(eng *khop.Engine) ([]byte, error) {
	snap, err := codec.FromEngine(eng, khop.Centralized)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func khopEvents(events []codec.Event) []khop.Event {
	out := make([]khop.Event, len(events))
	for i, ev := range events {
		var err error
		if out[i], err = ev.Khop(); err != nil {
			panic(err) // the generator only emits the three known kinds
		}
	}
	return out
}

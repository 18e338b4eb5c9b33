package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	khop "repro"
	"repro/internal/codec"
)

// Shared deployment shape: every workload clusters a unit-disk graph of
// average degree 10 with k = 2 and AC-LMST, the paper's headline
// algorithm.
const (
	avgDegree = 10
	clusterK  = 2
	algorithm = "AC-LMST"
	// reservedShare of the nodes are the only ones churn touches; reads
	// stay in the largest component of G − R, so every read must succeed.
	reservedShare = 0.02
	// broadcastShare of the reads are broadcasts, the rest routes.
	broadcastShare = 0.10
)

// workload is one traffic mix. Serving workloads (read > 0) drive a
// khopd child over HTTP; build_50k runs back-to-back builds in a child
// khopbench process.
type workload struct {
	name    string
	n       int
	durable bool    // -state-dir and -wal-sync interval; kill -9 and restart at the end
	read    float64 // reads per second
	churn   float64 // churn batches per second
	batch   int     // events per churn batch
	// maxTail, when set, is the highest percentile op_tail_ms may report.
	maxTail level
	why     string
}

// workloads is the benchmark's fixed set, in run order. The reasons are
// the contract later changes are judged by, so they live beside the
// numbers that implement them.
var workloads = []workload{
	{name: "build_50k", n: 50000,
		why: "Back-to-back Engine.Build at N=50k: the build pipeline (graph, cluster, ncr, gateway) does all the work and no serving layer runs."},
	{name: "mixed_1k", n: 1000, read: 400, churn: 5, batch: 8,
		why: "The normal day: small per-query graph work, so the HTTP/JSON handler path dominates beside cheap churn commits."},
	// The p99 of read_20k's 1,600 reads moved 12-20% across ten runs of
	// identical code, as a few host stalls landed on it or missed it; its
	// p90 moved 5-8%. On the other workloads the p90 sits where reads
	// start to wait for churn commits, and moves more than the p99.
	{name: "read_20k", n: 20000, read: 80, maxTail: p90,
		why: "Read-only at N=20k: each query's O(N) routing BFS and broadcast flood dominate and no lock is contended."},
	// 64 events/s as one batch of 64: each batch holds the write lock
	// for its refresh (85-150 ms as the host's speed varies), so at one
	// batch a second the lock is held 10-17% of the time and the median
	// read stays clear of the reads that wait for it.
	{name: "churn_5k", n: 5000, read: 100, churn: 1, batch: 64, durable: true,
		why: "The write path beside reads: Apply, the post-batch refresh under the write lock, the WAL and crash recovery."},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opKind classifies one scheduled operation.
type opKind int

const (
	opRoute opKind = iota
	opBroadcast
	opChurn
)

func (k opKind) String() string {
	return [...]string{"route", "broadcast", "churn"}[k]
}

// op is one scheduled request. Reads carry endpoints; churn ops carry
// their batch.
type op struct {
	kind     opKind
	due      float64 // seconds after the start of the load phase
	src, dst int
	events   []codec.Event
}

// inputs is everything a workload run sends, derived from the seed
// alone: the network, the reserved churn set and the op schedule.
type inputs struct {
	w     workload
	graph *khop.Graph
	// reserved is R, sorted; largest is the largest component of G − R,
	// sorted.
	reserved, largest []int
	reads, batches    []op
	// union[v] holds every neighbour v ever has: the original links plus
	// every link a Join or Move sends. Any route hop must be one of them.
	union []map[int32]struct{}
	// A broadcast from the largest component of G − R reaches at least
	// that component (reachMin) and at most its component in the union
	// topology (reachMax); without churn the two are the same component
	// of G.
	reachMin, reachMax int
}

// rngFor derives an independent random stream per purpose, so changing
// how one stream is consumed never shifts another.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// generate builds a workload's inputs for the given seed and load-phase
// length.
func generate(w workload, seed int64, seconds float64) (*inputs, error) {
	net, err := khop.RandomNetwork(khop.NetworkConfig{
		N: w.n, AvgDegree: avgDegree, Seed: seed, AllowDisconnected: true,
	})
	if err != nil {
		return nil, fmt.Errorf("generating %s network: %w", w.name, err)
	}
	in := &inputs{w: w, graph: net.Graph()}
	if w.read == 0 && w.churn == 0 {
		return in, nil
	}

	perm := rngFor(seed, 1).Perm(w.n)
	in.reserved = perm[:int(math.Round(reservedShare*float64(w.n)))]
	sort.Ints(in.reserved)
	in.largest = largestComponentWithout(in.graph, in.reserved)
	if len(in.largest) < 2 {
		return nil, fmt.Errorf("%s seed %d: G − R has no component with two nodes", w.name, seed)
	}

	reads := int(w.read * seconds)
	rr := rngFor(seed, 2)
	in.reads = make([]op, reads)
	for i := range in.reads {
		o := op{kind: opRoute, due: float64(i) / w.read}
		if rr.Float64() < broadcastShare {
			o.kind = opBroadcast
		}
		o.src = in.largest[rr.Intn(len(in.largest))]
		o.dst = o.src
		for o.dst == o.src {
			o.dst = in.largest[rr.Intn(len(in.largest))]
		}
		in.reads[i] = o
	}

	in.union = make([]map[int32]struct{}, w.n)
	for v := range in.union {
		in.union[v] = make(map[int32]struct{}, in.graph.Degree(v))
		for _, u := range in.graph.Neighbors(v) {
			in.union[v][int32(u)] = struct{}{}
		}
	}
	if w.churn > 0 {
		ch := newChurner(net, in.reserved, rngFor(seed, 3))
		in.batches = make([]op, int(w.churn*seconds))
		for i := range in.batches {
			evs := ch.batch(w.batch)
			for _, ev := range evs {
				for _, u := range ev.Neighbors {
					in.union[ev.Node][int32(u)] = struct{}{}
					in.union[u][int32(ev.Node)] = struct{}{}
				}
			}
			in.batches[i] = op{kind: opChurn, due: float64(i) / w.churn, events: evs}
		}
	}
	in.reachMin, in.reachMax = len(in.largest), unionComponentSize(in.union, in.largest[0])
	if len(in.batches) == 0 {
		in.reachMin = in.reachMax
	}
	return in, nil
}

// unionComponentSize is the size of v's component in the union topology.
func unionComponentSize(union []map[int32]struct{}, v int) int {
	seen := make([]bool, len(union))
	seen[v] = true
	queue := []int32{int32(v)}
	for i := 0; i < len(queue); i++ {
		for u := range union[queue[i]] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(queue)
}

// largestComponentWithout returns the largest connected component of g
// with the removed nodes deleted (ties go to the component holding the
// smallest node), sorted.
func largestComponentWithout(g *khop.Graph, removed []int) []int {
	gone := make([]bool, g.N())
	for _, v := range removed {
		gone[v] = true
	}
	seen := make([]bool, g.N())
	var best []int
	for s := 0; s < g.N(); s++ {
		if gone[s] || seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, v := range g.Neighbors(comp[i]) {
				if !gone[v] && !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	sort.Ints(best)
	return best
}

// churner generates valid churn over the reserved set: it tracks every
// node's position and liveness, so a Leave or Move always names an alive
// node, a Join a departed one, and every neighbour it sends is alive and
// within radio range.
type churner struct {
	rng      *rand.Rand
	x, y     []float64
	alive    []bool
	reserved []int
	radius   float64
}

func newChurner(net *khop.Network, reserved []int, rng *rand.Rand) *churner {
	n := net.N()
	c := &churner{rng: rng, x: make([]float64, n), y: make([]float64, n),
		alive: make([]bool, n), reserved: reserved, radius: net.TransmissionRange()}
	for v := 0; v < n; v++ {
		c.x[v], c.y[v] = net.Position(v)
		c.alive[v] = true
	}
	return c
}

// batch returns the next size events. A reserved node that is alive
// leaves or moves with equal odds; a departed one joins where it left.
func (c *churner) batch(size int) []codec.Event {
	out := make([]codec.Event, size)
	for i := range out {
		v := c.reserved[c.rng.Intn(len(c.reserved))]
		switch {
		case !c.alive[v]:
			c.alive[v] = true
			out[i] = codec.Event{Kind: codec.EventJoin, Node: v, Neighbors: c.inRange(v)}
		case c.rng.Intn(2) == 0:
			c.alive[v] = false
			out[i] = codec.Event{Kind: codec.EventLeave, Node: v}
		default:
			// A move of up to one radio range in each axis, kept on the
			// 100×100 field.
			c.x[v] = clamp(c.x[v]+(2*c.rng.Float64()-1)*c.radius, 0, 100)
			c.y[v] = clamp(c.y[v]+(2*c.rng.Float64()-1)*c.radius, 0, 100)
			out[i] = codec.Event{Kind: codec.EventMove, Node: v, Neighbors: c.inRange(v)}
		}
	}
	return out
}

// inRange lists the alive nodes other than v within radio range of v's
// position, ascending.
func (c *churner) inRange(v int) []int {
	r2 := c.radius * c.radius
	var out []int
	for u := range c.x {
		if u == v || !c.alive[u] {
			continue
		}
		dx, dy := c.x[u]-c.x[v], c.y[u]-c.y[v]
		if dx*dx+dy*dy <= r2 {
			out = append(out, u)
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

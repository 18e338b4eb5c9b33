package main

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// The host reference is a fixed computation that belongs to khopbench,
// not to the system under test. It elects 2-hop heads and runs
// whole-graph BFS over a fixed 2,000-node unit-disk graph, with the same
// maps, sorting and allocation that the build and serving layers use.
// Every run times it in windows interleaved with its measured work, in
// the process that times that work. Each time the run reports is then
// divided by the host factor: the reference's median window over
// refNominalMS. A reported time so reads as on a host where a reference
// window takes refNominalMS.
//
// The shared host the bounds were set on alternates between speeds up to
// 1.8× apart for this kind of code, within seconds and over minutes. A
// plain arithmetic loop moves only 1.25×. So raw times of identical code
// spread 10-45% across ten runs, however long each run is. The
// reference slows with the host, and the reported times mostly do not
// (README.md, "Host factor").
const (
	refNodes = 2000
	refSeed  = 1
	// refCalls is the number of calls one window times; the window reads
	// their median.
	refCalls = 8
	// refEvery is how often a serving run times a window.
	refEvery = 500 * time.Millisecond
	// refNominalMS fixes the scale of every reported time. It is about
	// the window on the host the bounds were set on when that host is
	// fast (0.8-0.9 ms; 1.4 ms when slow). Changing it rescales every
	// reported time, so it stays.
	refNominalMS = 1.0
)

// refGraph is the reference's input: a unit-disk graph of average degree
// 10 on the unit square. Its own code generates it from refSeed.
type refGraph struct {
	adj [][]int32
	// sink keeps work's checksums live.
	sink int
}

func newRefGraph() *refGraph {
	rng := rand.New(rand.NewSource(refSeed))
	xs, ys := make([]float64, refNodes), make([]float64, refNodes)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	r := math.Sqrt(10 / (math.Pi * refNodes))
	cells := int(1 / r)
	cell := func(x float64) int { return min(int(x*float64(cells)), cells-1) }
	grid := make([][]int32, cells*cells)
	for i := range xs {
		c := cell(ys[i])*cells + cell(xs[i])
		grid[c] = append(grid[c], int32(i))
	}
	g := &refGraph{adj: make([][]int32, refNodes)}
	for i := range xs {
		cx, cy := cell(xs[i]), cell(ys[i])
		for y := max(cy-1, 0); y <= min(cy+1, cells-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, cells-1); x++ {
				for _, j := range grid[y*cells+x] {
					dx, dy := xs[i]-xs[j], ys[i]-ys[j]
					if int(j) != i && dx*dx+dy*dy <= r*r {
						g.adj[i] = append(g.adj[i], j)
					}
				}
			}
		}
	}
	return g
}

// work is one call of the reference. It elects 2-hop heads by lowest id
// over map-tracked balls, orders the heads, and runs a BFS of the whole
// graph from eight of them. It returns a checksum, so the compiler
// cannot drop the work.
func (g *refGraph) work() int {
	n := len(g.adj)
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	seen := make(map[int32]bool)
	var frontier, next []int32
	for v := range n {
		if head[v] >= 0 {
			continue
		}
		clear(seen)
		seen[int32(v)] = true
		frontier = append(frontier[:0], int32(v))
		for range 2 {
			next = next[:0]
			for _, u := range frontier {
				for _, w := range g.adj[u] {
					if !seen[w] {
						seen[w] = true
						next = append(next, w)
					}
				}
			}
			frontier, next = next, frontier
		}
		for u := range seen {
			if head[u] < 0 {
				head[u] = int32(v)
			}
		}
	}
	var heads []int32
	for v, h := range head {
		if int(h) == v {
			heads = append(heads, int32(v))
		}
	}
	slices.SortFunc(heads, func(a, b int32) int {
		if d := len(g.adj[a]) - len(g.adj[b]); d != 0 {
			return d
		}
		return int(a - b)
	})
	sum := len(heads)
	for _, s := range heads[:min(8, len(heads))] {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]int32, 1, n)
		queue[0], dist[s] = s, 0
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, w := range g.adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		sum += len(queue)
	}
	return sum
}

// window times refCalls calls and returns their median (ms).
func (g *refGraph) window() float64 {
	ms := make([]float64, refCalls)
	for i := range ms {
		t := time.Now()
		g.sink += g.work()
		ms[i] = float64(time.Since(t)) / 1e6
	}
	return median(ms)
}

// refTimer times calls between reference windows.
type refTimer struct {
	g       *refGraph
	windows []float64 // every window timed, in order
}

// newRefTimer times the first window.
func newRefTimer() *refTimer {
	t := &refTimer{g: newRefGraph()}
	t.windows = append(t.windows, t.g.window())
	return t
}

// time runs fn, times the next window, and returns fn's duration (ms)
// divided by the host factor of the windows just before and after it.
func (t *refTimer) time(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	ms := float64(time.Since(start)) / 1e6
	before := t.windows[len(t.windows)-1]
	t.windows = append(t.windows, t.g.window())
	return ms * 2 * refNominalMS / (before + t.windows[len(t.windows)-1]), err
}

// sampleHost times a reference window every refEvery on its own
// goroutine until the returned function is called. That function returns
// the median window (ms).
func sampleHost() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64)
	go func() {
		g := newRefGraph()
		var ms []float64
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				// A run shorter than one period still gets a window.
				if len(ms) == 0 {
					ms = append(ms, g.window())
				}
				out <- median(ms)
				return
			case <-tick.C:
				ms = append(ms, g.window())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// normalize divides every time metric in m (unit s, ms or us) by the host
// factor refMS/refNominalMS.
func normalize(m map[string]float64, refMS float64) {
	f := refMS / refNominalMS
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if v, ok := m[s.name]; ok && (s.unit == "s" || s.unit == "ms" || s.unit == "us") {
			m[s.name] = v / f
		}
	}
}

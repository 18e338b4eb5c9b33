package experiment

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
)

// Runner executes independent Monte-Carlo trials across a worker pool
// while producing output bitwise identical to serial execution.
//
// Determinism rests on two invariants. First, every trial owns a
// rand.Rand derived purely from (Seed, Key, trial index), so a trial's
// result does not depend on which worker ran it or on how many trials
// ran before it. Second, results are consumed strictly in trial-index
// order, so an adaptive stopping rule sees exactly the prefix it would
// have seen serially; trials that were computed speculatively past the
// stopping point are discarded. Together these make `-parallel 1` and
// `-parallel N` byte-identical.
type Runner struct {
	// Seed is the experiment's base seed.
	Seed int64
	// Key names the configuration (figure, k, D, N, …) so distinct
	// sweep points draw independent randomness from the same base seed.
	Key string
	// Parallel is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Progress, when non-nil, is called after each trial is consumed,
	// in trial-index order, with the number of trials consumed so far.
	Progress func(done int)
}

func (r Runner) workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// TrialSeed derives the RNG seed for one trial of one configuration:
// an FNV-1a hash of (base, key, trial) finished with a splitmix64 mix
// so consecutive trial indices land far apart in seed space.
func TrialSeed(base int64, key string, trial int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(buf[:], uint64(trial))
	h.Write(buf[:])
	return int64(splitmix64(h.Sum64()))
}

// TrialRNG returns the deterministic per-trial random source.
func TrialRNG(base int64, key string, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(base, key, trial)))
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix, so distinct hash inputs keep distinct seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunTrials drives trials 0, 1, 2, … through r's worker pool until
// consume reports done, an error occurs, or ctx is cancelled. trial is
// called concurrently (each call with its own index-derived RNG) and
// must not share mutable state across calls; consume is called from the
// caller's goroutine only, strictly in trial-index order. It returns
// the number of trials consumed.
//
// Trials are scheduled speculatively in batches of the worker count, so
// up to workers-1 trial results past the stopping point are computed
// and discarded; with an adaptive stopping rule that waste is the price
// of bitwise-stable output. One worker runs the same loop with batches
// of one trial, so it computes nothing speculatively. All workers are
// joined before return, so no goroutines outlive the call even on
// cancellation.
func RunTrials[T any](ctx context.Context, r Runner,
	trial func(ctx context.Context, idx int, rng *rand.Rand) (T, error),
	consume func(idx int, result T) (done bool, err error)) (int, error) {

	workers := r.workers()
	type slot struct {
		val T
		err error
	}
	next := 0
	results := make([]slot, workers)
	for {
		if err := ctx.Err(); err != nil {
			return next, err
		}
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := ctx.Err(); err != nil {
					results[i] = slot{err: err}
					return
				}
				idx := next + i
				v, err := trial(ctx, idx, TrialRNG(r.Seed, r.Key, idx))
				results[i] = slot{val: v, err: err}
			}(i)
		}
		wg.Wait()
		for i := 0; i < workers; i++ {
			idx := next + i
			if err := ctx.Err(); err != nil {
				return idx, err
			}
			if err := results[i].err; err != nil {
				return idx, fmt.Errorf("trial %d: %w", idx, err)
			}
			done, err := consume(idx, results[i].val)
			if err != nil {
				return idx, fmt.Errorf("trial %d: %w", idx, err)
			}
			if r.Progress != nil {
				r.Progress(idx + 1)
			}
			if done {
				return idx + 1, nil
			}
		}
		next += workers
	}
}

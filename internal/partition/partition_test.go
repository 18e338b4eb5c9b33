package partition

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func TestRangesCoverExactly(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for parts := 1; parts <= 9; parts++ {
			rs := Ranges(n, parts)
			next := 0
			for _, r := range rs {
				if r.Start != next {
					t.Fatalf("n=%d parts=%d: range starts at %d, want %d", n, parts, r.Start, next)
				}
				if r.Len() <= 0 {
					t.Fatalf("n=%d parts=%d: empty range %+v", n, parts, r)
				}
				next = r.End
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: ranges cover [0,%d), want [0,%d)", n, parts, next, n)
			}
			if len(rs) > parts || (n > 0 && len(rs) == 0) {
				t.Fatalf("n=%d parts=%d: got %d ranges", n, parts, len(rs))
			}
		}
	}
	if Ranges(5, 0) != nil {
		t.Fatal("parts=0 should return nil")
	}
}

func TestShardVisitsEveryItemOnce(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		const items = 100
		var hits [items]int32
		err := p.Shard(ctx, items, nil, func(shard int, s *graph.Scratch, r Range) error {
			if s == nil {
				return errors.New("nil scratch")
			}
			for i := r.Start; i < r.End; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestShardReturnsLowestShardError(t *testing.T) {
	p := NewPool(4)
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := p.Shard(context.Background(), 40, nil, func(shard int, _ *graph.Scratch, _ Range) error {
		switch shard {
		case 1:
			return errLow
		case 3:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("err=%v, want the lowest-indexed shard's error", err)
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers=%d", p.Workers())
	}
	ran := false
	err := p.Shard(context.Background(), 7, nil, func(shard int, _ *graph.Scratch, r Range) error {
		ran = true
		if shard != 0 || r.Start != 0 || r.End != 7 {
			t.Fatalf("nil pool shard=%d range=%+v", shard, r)
		}
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestShardEmptyHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := NewPool(4).Shard(ctx, 0, nil, nil); err == nil {
		t.Fatal("cancelled empty shard returned nil")
	}
	if err := NewPool(4).Shard(context.Background(), 0, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine N [running]:").
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return string(bytes.Fields(buf[:n])[1])
}

// TestShardSerialIsOneInlineShard pins the serial path: a nil pool, a
// one-worker pool, and a multi-worker pool given one item each run fn
// exactly once, inline on the caller's goroutine, with the caller's
// scratch and the whole range; a nil scratch is replaced by a fresh one.
func TestShardSerialIsOneInlineShard(t *testing.T) {
	cases := []struct {
		name  string
		pool  *Pool
		items int
	}{
		{"nil pool", nil, 9},
		{"one worker", NewPool(1), 9},
		{"one item", NewPool(4), 1},
	}
	caller := goroutineID()
	for _, tc := range cases {
		for _, s := range []*graph.Scratch{graph.NewScratch(), nil} {
			calls := 0
			err := tc.pool.Shard(context.Background(), tc.items, s, func(shard int, got *graph.Scratch, r Range) error {
				calls++
				if id := goroutineID(); id != caller {
					t.Errorf("%s: fn ran on goroutine %s, want the caller's %s", tc.name, id, caller)
				}
				if shard != 0 || r != (Range{Start: 0, End: tc.items}) {
					t.Errorf("%s: shard=%d range=%+v, want 0 and [0,%d)", tc.name, shard, r, tc.items)
				}
				if got == nil || (s != nil && got != s) {
					t.Errorf("%s: fn got scratch %p, want the caller's %p (or a fresh one for nil)", tc.name, got, s)
				}
				return nil
			})
			if err != nil || calls != 1 {
				t.Fatalf("%s (nil scratch %v): err=%v calls=%d, want one call", tc.name, s == nil, err, calls)
			}
		}
	}
}

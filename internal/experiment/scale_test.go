package experiment

import (
	"context"
	"testing"
)

// TestScaleFigureSmall runs the scale workload at a test-sized ladder:
// the figure must carry both series (serial and parallel) with matching
// x-axes, positive timings, and the in-trial serial/parallel structure
// cross-check — plus trial 0's VerifyResult gate — must hold (a mismatch
// fails the build with an error).
func TestScaleFigureSmall(t *testing.T) {
	cfg := RunConfig{Seed: 1, ScaleMaxN: 2500, ScaleRuns: 2, ScaleWorkers: 4}
	fig, err := ScaleFigure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series=%d, want 2", len(fig.Series))
	}
	batched, parallel := fig.Series[0], fig.Series[1]
	// N=1000, 2500.
	if len(batched.Points) != 2 || len(parallel.Points) != 2 {
		t.Fatalf("points: batched=%d parallel=%d, want 2 each", len(batched.Points), len(parallel.Points))
	}
	for i := range batched.Points {
		if batched.Points[i].N != parallel.Points[i].N {
			t.Fatalf("x-axis mismatch at %d: %d / %d", i, batched.Points[i].N, parallel.Points[i].N)
		}
		if batched.Points[i].Mean <= 0 || parallel.Points[i].Mean <= 0 {
			t.Fatalf("non-positive wall time at N=%d", batched.Points[i].N)
		}
		if batched.Points[i].Runs != cfg.ScaleRuns {
			t.Fatalf("runs=%d, want %d", batched.Points[i].Runs, cfg.ScaleRuns)
		}
	}
}

// TestScaleFigureCancellation: the workload aborts promptly on a
// cancelled context.
func TestScaleFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScaleFigure(ctx, RunConfig{Seed: 1, ScaleMaxN: 1000, ScaleRuns: 1}); err == nil {
		t.Fatal("cancelled scale workload returned no error")
	}
}

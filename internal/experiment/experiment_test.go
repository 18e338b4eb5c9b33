package experiment

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/metrics"
)

// fastStop keeps test sweeps quick while still averaging a few runs.
func fastStop() metrics.StopRule {
	return metrics.StopRule{MinRuns: 3, MaxRuns: 5, Level: 0.90, RelWidth: 0.01}
}

func fastConfig(k int, degree float64) SweepConfig {
	return SweepConfig{
		RunConfig: RunConfig{Stop: fastStop(), Seed: 1},
		Ns:        []int{50, 100},
		Degree:    degree,
		K:         k,
	}
}

func TestCDSSweepStructure(t *testing.T) {
	fig, err := CDSSweep(context.Background(), fastConfig(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(gateway.Algorithms) {
		t.Fatalf("series=%d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 || p.Runs < 3 {
				t.Fatalf("series %s point %+v", s.Label, p)
			}
		}
	}
	// CDS grows with N for every algorithm.
	for _, s := range fig.Series {
		if s.Points[1].Mean <= s.Points[0].Mean {
			t.Errorf("series %s not increasing with N: %v", s.Label, s.Points)
		}
	}
}

func TestCDSSweepDeterministic(t *testing.T) {
	a, err := CDSSweep(context.Background(), fastConfig(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CDSSweep(context.Background(), fastConfig(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatalf("sweep not reproducible at series %d point %d", i, j)
			}
		}
	}
}

// TestCDSSweepOrdering checks the headline shape of Figures 5/6 on a
// small sweep: mesh ≥ LMST ≥ G-MST on average.
func TestCDSSweepOrdering(t *testing.T) {
	cfg := fastConfig(2, 6)
	cfg.Stop = metrics.StopRule{MinRuns: 10, MaxRuns: 15, Level: 0.9, RelWidth: 0.01}
	fig, err := CDSSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ncMesh := fig.SeriesByLabel("NC-Mesh").MeanOver()
	acMesh := fig.SeriesByLabel("AC-Mesh").MeanOver()
	ncLMST := fig.SeriesByLabel("NC-LMST").MeanOver()
	gmst := fig.SeriesByLabel("G-MST").MeanOver()
	if !(ncMesh >= acMesh && acMesh >= ncLMST && ncLMST >= gmst) {
		t.Fatalf("ordering violated: NC-Mesh %.1f, AC-Mesh %.1f, NC-LMST %.1f, G-MST %.1f",
			ncMesh, acMesh, ncLMST, gmst)
	}
}

func TestHeadsAndCDSSweep(t *testing.T) {
	heads, cdsSize, err := HeadsAndCDSSweep(context.Background(), fastConfig(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if heads.Label != "k=3" || cdsSize.Label != "k=3" {
		t.Fatalf("labels %q %q", heads.Label, cdsSize.Label)
	}
	for i := range heads.Points {
		if heads.Points[i].Mean >= cdsSize.Points[i].Mean {
			t.Fatalf("heads %v ≥ CDS %v", heads.Points[i].Mean, cdsSize.Points[i].Mean)
		}
	}
}

func TestFig7KOrdering(t *testing.T) {
	heads, _, err := Fig7(context.Background(), RunConfig{Seed: 1, Stop: fastStop()})
	if err != nil {
		t.Fatal(err)
	}
	if len(heads.Series) != 4 {
		t.Fatalf("series=%d", len(heads.Series))
	}
	// Figure 7(a): larger k, fewer clusterheads.
	for i := 1; i < 4; i++ {
		if heads.Series[i].MeanOver() > heads.Series[i-1].MeanOver() {
			t.Fatalf("heads increased from %s to %s", heads.Series[i-1].Label, heads.Series[i].Label)
		}
	}
}

func TestOverheadGrowsWithK(t *testing.T) {
	fig, err := Overhead(context.Background(), RunConfig{Seed: 1}, 60, 6, []int{1, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points=%d", len(pts))
	}
	if pts[1].Mean <= pts[0].Mean {
		t.Fatalf("overhead k=3 (%v) not above k=1 (%v)", pts[1].Mean, pts[0].Mean)
	}
}

func TestMaintenanceExperiment(t *testing.T) {
	res, err := Maintenance(context.Background(), RunConfig{Seed: 1}, 60, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures != 2*30 {
		t.Fatalf("departures=%d", res.Departures)
	}
	total := res.MemberFrac + res.GatewayFrac + res.HeadFrac
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fractions sum to %v", total)
	}
	if res.MemberFrac <= 0 {
		t.Fatal("no member departures in 60 random departures — implausible")
	}
}

func TestAblations(t *testing.T) {
	stop := metrics.StopRule{MinRuns: 2, MaxRuns: 3, Level: 0.9, RelWidth: 0.01}
	aff, err := AblationAffiliation(context.Background(), RunConfig{Seed: 1, Stop: stop}, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(aff.Series) != 3 {
		t.Fatalf("affiliation series=%d", len(aff.Series))
	}
	prio, err := AblationPriority(context.Background(), RunConfig{Seed: 1, Stop: stop}, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prio.Series) != 2 {
		t.Fatalf("priority series=%d", len(prio.Series))
	}
	keep, err := AblationKeepRule(context.Background(), RunConfig{Seed: 1, Stop: stop}, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep.Series) != 2 {
		t.Fatalf("keep series=%d", len(keep.Series))
	}
	// Intersection keeps a subset of union's links, so its CDS can only
	// be equal or smaller on average.
	if keep.SeriesByLabel("intersection").MeanOver() > keep.SeriesByLabel("union").MeanOver()+1e-9 {
		t.Error("intersection keep-rule produced a larger CDS than union")
	}
}

func TestWriteTable(t *testing.T) {
	fig, err := CDSSweep(context.Background(), fastConfig(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, label := range []string{"NC-Mesh", "AC-LMST", "G-MST", "50", "100"} {
		if !strings.Contains(out, label) {
			t.Errorf("table missing %q:\n%s", label, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	fig, err := CDSSweep(context.Background(), fastConfig(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 N values
		t.Fatalf("CSV lines=%d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Number of nodes,") {
		t.Fatalf("header=%q", lines[0])
	}
	wantCols := 1 + 3*len(gateway.Algorithms)
	if got := len(strings.Split(lines[1], ",")); got != wantCols {
		t.Fatalf("columns=%d want %d", got, wantCols)
	}
}

// TestWriteTableRaggedSeries: a series that stops early must not
// truncate the table — rows past its last x render with "-" in its
// column, and the CSV leaves its cells empty.
func TestWriteTableRaggedSeries(t *testing.T) {
	fig := &Figure{
		Title:  "ragged",
		XLabel: "N",
		Series: []Series{
			{Label: "short", Points: []Point{{N: 10, Mean: 1}, {N: 20, Mean: 2}}},
			{Label: "full", Points: []Point{{N: 10, Mean: 3}, {N: 20, Mean: 4}, {N: 40, Mean: 5}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 3 x-values
		t.Fatalf("table rows=%d, the short series must not drop x=40:\n%s", len(lines), out)
	}
	last := lines[4]
	if !strings.Contains(last, "40") || !strings.Contains(last, "-") || !strings.Contains(last, "5.00") {
		t.Fatalf("x=40 row should show - for the short series and 5.00 for the full one: %q", last)
	}
	buf.Reset()
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(csvLines) != 4 {
		t.Fatalf("CSV rows=%d:\n%s", len(csvLines), buf.String())
	}
	if want := "40,,,,5.0000,0.0000,1"; !strings.HasPrefix(csvLines[3], "40,,,") {
		t.Fatalf("CSV x=40 row=%q want prefix of %q", csvLines[3], want)
	}
}

func TestSeriesByLabelMissing(t *testing.T) {
	fig := &Figure{Series: []Series{{Label: "a"}}}
	if fig.SeriesByLabel("b") != nil {
		t.Fatal("missing label returned non-nil")
	}
	if fig.SeriesByLabel("a") == nil {
		t.Fatal("present label returned nil")
	}
}

func TestMeanOverEmpty(t *testing.T) {
	var s Series
	if s.MeanOver() != 0 {
		t.Fatal("empty series mean nonzero")
	}
}

func TestCheckClaimsOnRealSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full claim sweep in short mode")
	}
	stop := metrics.StopRule{MinRuns: 8, MaxRuns: 12, Level: 0.9, RelWidth: 0.01}
	figs5, err := Fig5(context.Background(), RunConfig{Seed: 1, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	heads7, cds7, err := Fig7(context.Background(), RunConfig{Seed: 1, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	claims := CheckClaims(figs5, heads7, cds7)
	if len(claims) != 6 {
		t.Fatalf("claims=%d", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %s failed on reproduction sweep: %s (%s)", c.ID, c.Text, c.Detail)
		}
	}
}

func TestNewInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, err := NewInstance(50, 6, 2, cluster.AffiliationID, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Net.N() != 50 || inst.C.K != 2 {
		t.Fatalf("instance %+v", inst)
	}
	if !inst.Net.G.Connected() {
		t.Fatal("instance not connected")
	}
}

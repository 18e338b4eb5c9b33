package viz

import (
	"bytes"
	"context"
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

func testScene(t testing.TB) (*udg.Network, *cluster.Clustering, *gateway.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	net, err := udg.Generate(udg.Config{N: 60, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: 2})
	res := connect(t, net.G, c, gateway.ACLMST)
	return net, c, res
}

func TestRenderWellFormedXML(t *testing.T) {
	net, c, res := testScene(t)
	var buf bytes.Buffer
	if err := Render(&buf, net, c, res, "title", DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
}

func TestRenderCountsShapes(t *testing.T) {
	net, c, res := testScene(t)
	var buf bytes.Buffer
	if err := Render(&buf, net, c, res, "", DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "<polygon"); got != len(c.Heads) {
		t.Errorf("polygons=%d, heads=%d", got, len(c.Heads))
	}
	if got := strings.Count(out, "<circle"); got != net.N()-len(c.Heads) {
		t.Errorf("circles=%d, non-heads=%d", got, net.N()-len(c.Heads))
	}
	// One label per node when ShowIDs is on.
	if got := strings.Count(out, "<text"); got != net.N() {
		t.Errorf("texts=%d, nodes=%d", got, net.N())
	}
}

func TestRenderPlainNetwork(t *testing.T) {
	net, _, _ := testScene(t)
	var buf bytes.Buffer
	style := DefaultStyle()
	style.ShowIDs = false
	if err := Render(&buf, net, nil, nil, "", style); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<circle") != net.N() {
		t.Error("plain render should draw all nodes as circles")
	}
	if strings.Contains(out, "<polygon") {
		t.Error("plain render has clusterhead diamonds")
	}
	if strings.Contains(out, "<text") {
		t.Error("ShowIDs=false still renders labels")
	}
}

func TestRenderNoEdges(t *testing.T) {
	net, c, res := testScene(t)
	style := DefaultStyle()
	style.ShowEdges = false
	var withEdges, without bytes.Buffer
	if err := Render(&withEdges, net, c, res, "", DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	if err := Render(&without, net, c, res, "", style); err != nil {
		t.Fatal(err)
	}
	if without.Len() >= withEdges.Len() {
		t.Error("disabling edges did not shrink the output")
	}
}

func TestRenderTitleEscaped(t *testing.T) {
	net, _, _ := testScene(t)
	var buf bytes.Buffer
	if err := Render(&buf, net, nil, nil, `<&">`, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `<&">`) {
		t.Error("title not escaped")
	}
	if !strings.Contains(buf.String(), "&lt;&amp;&quot;&gt;") {
		t.Error("escaped title missing")
	}
}

func TestStyleDefaults(t *testing.T) {
	s := Style{}.withDefaults()
	if s.Scale <= 0 || s.Margin <= 0 || s.NodeR <= 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// connect runs core.Connect for algo on the clustering c of g.
func connect(tb testing.TB, g *graph.Graph, c *cluster.Clustering, algo gateway.Algorithm) *gateway.Result {
	tb.Helper()
	out, err := core.Connect(context.Background(), g, graph.Flatten(g), c, algo, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out.Gateway
}

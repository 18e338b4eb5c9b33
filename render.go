package khop

import (
	"io"

	"repro/internal/viz"
)

// RenderStyle controls RenderSVG output.
type RenderStyle struct {
	// ShowIDs labels every node with its ID.
	ShowIDs bool
	// ShowEdges draws all unit-disk edges (light gray) under the overlay.
	ShowEdges bool
}

// RenderSVG writes an SVG snapshot of the network in the style of the
// paper's Figure 4: clusterheads as diamonds, gateways as bold circles,
// and the selected gateway paths as bold edges. res may be nil to draw
// the plain network; a non-nil res must carry its GatewayPaths (see
// ErrNoGatewayPaths).
func RenderSVG(w io.Writer, net *Network, res *Result, title string, style RenderStyle) error {
	s := viz.DefaultStyle()
	s.ShowIDs = style.ShowIDs
	s.ShowEdges = style.ShowEdges
	if res == nil {
		return viz.Render(w, net.net, nil, nil, title, s)
	}
	out, err := res.internals()
	if err != nil {
		return err
	}
	return viz.Render(w, net.net, out.Clustering, out.Gateway, title, s)
}

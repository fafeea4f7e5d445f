package experiments

import (
	"strings"
	"testing"
)

// TestConstellationSweepShapeAndRender pins the contended ground-station
// sweep at a compact single-location scale: every (fleet, stations) cell
// of the grid is measured, books contact windows, tracks events for the
// time-to-usable-image workload, and the rendered table carries the TTUI
// columns. ConstellationSweep itself fails if any contact moves more bytes
// than its per-contact budget.
func TestConstellationSweepShapeAndRender(t *testing.T) {
	sc := Tiny()
	sc.EvalDays = 6
	sc.MaxLocations = 1
	res, err := ConstellationSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(constSweepSats)*len(constSweepStations) {
		t.Fatalf("sweep shape: %d points, want %d", len(res.Points), len(constSweepSats)*len(constSweepStations))
	}
	for _, p := range res.Points {
		if p.Contacts == 0 {
			t.Fatalf("constellation point %dx%d booked no contacts", p.Satellites, p.Stations)
		}
		if p.Events.Tracked == 0 {
			t.Fatalf("constellation point %dx%d tracked no events", p.Satellites, p.Stations)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "TTUI") || !strings.Contains(out, "stalls") || res.ID() == "" {
		t.Fatalf("render missing the TTUI columns:\n%s", out)
	}
}

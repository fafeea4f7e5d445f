package experiments_test

import (
	"flag"
	"maps"
	"testing"

	"earthplus/internal/cli"
	"earthplus/internal/experiments"
)

// TestSystemFlagsReachEarthPlusSpec parses every system-param flag the
// simulation cmds share and asserts each one reaches the Earth+ spec the
// experiments build, through the same SystemParams mapping and Scale
// carrier earthplus-bench wires up. A flag registered but never mapped —
// -tiledstore once was, on earthplus-bench — fails here.
func TestSystemFlagsReachEarthPlusSpec(t *testing.T) {
	fs := flag.NewFlagSet("earthplus-bench", flag.ContinueOnError)
	var perf cli.Perf
	var params cli.SystemParams
	perf.Register(fs)
	params.Register(fs)
	err := fs.Parse([]string{
		"-simworkers", "3",
		"-storage", "250000", "-evictpolicy", "schedule", "-refcompress", "-tiledstore",
		"-linkloss", "0.05", "-linkseed", "7",
		"-stations", "2", "-contactbudget", "4096",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := experiments.Tiny()
	sc.SimWorkers = perf.SimWorkers
	params.ApplyToSpec(&sc.EarthPlus)

	spec := experiments.EarthPlusSpec(sc, 0.01, 0.5)
	if spec.GammaBPP != 0.5 || spec.Theta != 0.01 {
		t.Fatalf("γ/θ = %v/%v, want 0.5/0.01", spec.GammaBPP, spec.Theta)
	}
	wantParams := map[string]float64{
		"storage_bytes": 250000, "link_loss": 0.05, "link_seed": 7,
		"stations": 2, "contact_budget": 4096,
	}
	if !maps.Equal(spec.Params, wantParams) {
		t.Fatalf("Params = %v, want %v", spec.Params, wantParams)
	}
	wantStr := map[string]string{"evict_policy": "schedule", "ref_compression": "on", "tiled_store": "on"}
	if !maps.Equal(spec.StrParams, wantStr) {
		t.Fatalf("StrParams = %v, want %v", spec.StrParams, wantStr)
	}
	if sc.SimWorkers != 3 {
		t.Fatalf("SimWorkers = %d, want 3", sc.SimWorkers)
	}

	// Each run gets its own copy: one run's spec edits must not leak into
	// the overlay the next run is built from.
	spec.Params["stations"] = 9
	spec.StrParams["tiled_store"] = "off"
	if sc.EarthPlus.Params["stations"] != 2 || sc.EarthPlus.StrParams["tiled_store"] != "on" {
		t.Fatal("a run's spec aliases the scale's overlay")
	}

	// Without flags the spec carries no params, so every system default
	// survives.
	clean := experiments.EarthPlusSpec(experiments.Tiny(), 0.01, 0.5)
	if clean.Params != nil || clean.StrParams != nil {
		t.Fatalf("flagless spec carries params: %+v", clean)
	}
}

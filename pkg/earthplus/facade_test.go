package earthplus_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"earthplus/pkg/earthplus"
)

// TestPlaneCodecFacade exercises the plane-level codec surface: encode,
// parse, layered decode and the lossless pair.
func TestPlaneCodecFacade(t *testing.T) {
	img := losslessTestImage(48, 32, 1)
	opts := earthplus.DefaultCodecOptions()
	opts.BudgetBytes = earthplus.BudgetForBPP(2.0, 48, 32)
	data, err := earthplus.EncodePlane(img.Plane(0), 48, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > opts.BudgetBytes {
		t.Fatalf("stream %d bytes exceeds budget %d", len(data), opts.BudgetBytes)
	}
	info, err := earthplus.ParseCodestream(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.W != 48 || info.H != 32 || info.NLayers < 1 {
		t.Fatalf("parsed %+v", info)
	}
	if _, w, h, err := earthplus.DecodePlane(data, 1); err != nil || w != 48 || h != 32 {
		t.Fatalf("layered decode: %v (%dx%d)", err, w, h)
	}

	ll, err := earthplus.EncodePlaneLossless(img.Plane(0), 48, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	plane, _, _, err := earthplus.DecodePlaneLossless(ll)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range img.Plane(0) {
		if earthplus.Quantize16(v) != earthplus.Quantize16(plane[i]) {
			t.Fatalf("lossless sample %d drifted", i)
		}
	}
}

func TestReadCodestream(t *testing.T) {
	frame, err := earthplus.EncodeFrame(context.Background(), losslessTestImage(32, 32, 2), earthplus.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := earthplus.ReadCodestream(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("ReadCodestream did not reproduce the frame")
	}
}

func TestRegisterCustomSystem(t *testing.T) {
	earthplus.Register("facade-test-variant", func(env *earthplus.Env, spec earthplus.SystemSpec) (earthplus.System, error) {
		return earthplus.NewSystem(earthplus.SystemKodan, env, spec)
	})
	env := testEnv()
	sys, err := earthplus.NewSystem("facade-test-variant", env, earthplus.SystemSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "Kodan" {
		t.Fatalf("variant resolved to %q", sys.Name())
	}
}

func TestExperimentCatalog(t *testing.T) {
	jobs := earthplus.Experiments(earthplus.QuickScale(), "")
	if len(jobs) < 15 {
		t.Fatalf("only %d experiment jobs", len(jobs))
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if j.Key == "" || j.Run == nil {
			t.Fatalf("malformed job %+v", j)
		}
		if keys[j.Key] {
			t.Fatalf("duplicate key %q", j.Key)
		}
		keys[j.Key] = true
	}
	for _, want := range []string{"table1", "fig11b", "codecbench", "storagesweep", "losssweep", "constsweep", "ablation-theta"} {
		if !keys[want] {
			t.Fatalf("catalog is missing %q", want)
		}
	}
	// Sim and serving performance live in perfbench, not in the catalog.
	for _, gone := range []string{"simbench", "simscale", "servebench"} {
		if keys[gone] {
			t.Fatalf("catalog still lists the retired %q job", gone)
		}
	}
	if fs := earthplus.FullScale(); fs.EvalDays <= earthplus.QuickScale().EvalDays {
		t.Fatalf("FullScale eval window %d not larger than quick", fs.EvalDays)
	}
	// table1 is static and cheap: run it through the catalog.
	for _, j := range jobs {
		if j.Key != "table1" {
			continue
		}
		res, err := j.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 || res.ID() == "" {
			t.Fatal("table1 rendered nothing")
		}
	}
}

func TestMetricsFacade(t *testing.T) {
	var buf bytes.Buffer
	earthplus.Table(&buf, [][]string{{"name", "value"}, {"a", "1"}})
	if !strings.Contains(buf.String(), "name") {
		t.Fatalf("Table output %q", buf.String())
	}
	buf.Reset()
	earthplus.Bar(&buf, "demo", []string{"x"}, []float64{1}, "B", 10)
	if buf.Len() == 0 {
		t.Fatal("Bar rendered nothing")
	}
}

func TestRasterFacade(t *testing.T) {
	if len(earthplus.Sentinel2Bands()) != 13 || len(earthplus.PlanetBands()) != 4 {
		t.Fatalf("band layouts: %d / %d", len(earthplus.Sentinel2Bands()), len(earthplus.PlanetBands()))
	}
	img := earthplus.NewImage(8, 8, []earthplus.BandInfo{{Name: "g"}})
	for i := range img.Plane(0) {
		img.Plane(0)[i] = float32(i) / 64
	}
	var pgm bytes.Buffer
	if err := img.WritePGM(&pgm, 0); err != nil {
		t.Fatal(err)
	}
	back, err := earthplus.ReadPGM(&pgm)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != 8 || back.Height != 8 {
		t.Fatalf("PGM round trip geometry %dx%d", back.Width, back.Height)
	}
	grid, err := earthplus.NewTileGrid(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	mask := earthplus.NewTileMask(grid)
	if mask.Count() != 0 {
		t.Fatalf("fresh mask count %d", mask.Count())
	}
}

func TestTraceRoundTripAndStreaming(t *testing.T) {
	env := testEnv()
	sys, err := earthplus.NewSystem(earthplus.SystemEarthPlus, env, earthplus.SystemSpec{})
	if err != nil {
		t.Fatal(err)
	}
	acc := earthplus.NewAccumulator()
	var streamed int
	res, err := earthplus.RunStream(env, sys, 0, 12, 14, func(r *earthplus.Record) {
		acc.Add(r)
		streamed++
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("no records streamed")
	}
	sum := acc.Summary(res, env.Downlink)
	if sum.Captures != streamed {
		t.Fatalf("accumulated %d captures for %d streamed", sum.Captures, streamed)
	}

	env2 := testEnv()
	sys2, err := earthplus.NewSystem(earthplus.SystemEarthPlus, env2, earthplus.SystemSpec{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := earthplus.Run(env2, sys2, 0, 12, 13)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := earthplus.WriteTrace(&buf, full); err != nil {
		t.Fatal(err)
	}
	back, err := earthplus.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(full.Records) || back.System != full.System {
		t.Fatalf("trace round trip: %d records system %q", len(back.Records), back.System)
	}
}

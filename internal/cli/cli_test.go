package cli

import (
	"flag"
	"math"
	"testing"

	"earthplus/pkg/earthplus"
)

func TestPerfFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var p Perf
	p.Register(fs)
	if err := fs.Parse([]string{"-simworkers", "5"}); err != nil {
		t.Fatal(err)
	}
	if p.SimWorkers != 5 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestStorageFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var s Storage
	s.Register(fs)
	if err := fs.Parse([]string{"-storage", "12345", "-evictpolicy", "schedule", "-refcompress"}); err != nil {
		t.Fatal(err)
	}
	if s.Bytes != 12345 || s.Policy != "schedule" || !s.RefCompress {
		t.Fatalf("parsed %+v", s)
	}
	var spec earthplus.SystemSpec
	s.ApplyToSpec(&spec)
	if spec.Params["storage_bytes"] != 12345 ||
		spec.StrParams["evict_policy"] != "schedule" ||
		spec.StrParams["ref_compression"] != "on" {
		t.Fatalf("spec %+v", spec)
	}
	// Unset flags leave the spec untouched so system defaults survive.
	var zero Storage
	var clean earthplus.SystemSpec
	zero.ApplyToSpec(&clean)
	if clean.Params != nil || clean.StrParams != nil {
		t.Fatalf("zero storage flags touched the spec: %+v", clean)
	}
}

func TestLinkFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Link
	l.Register(fs)
	if err := fs.Parse([]string{"-linkloss", "0.05", "-linkseed", "9"}); err != nil {
		t.Fatal(err)
	}
	if l.Loss != 0.05 || l.Seed != 9 {
		t.Fatalf("parsed %+v", l)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	var spec earthplus.SystemSpec
	l.ApplyToSpec(&spec)
	if spec.Params["link_loss"] != 0.05 || spec.Params["link_seed"] != 9 {
		t.Fatalf("spec %+v", spec)
	}
	// Loss 0 leaves the spec untouched: presence of link_loss is
	// meaningful, and default runs must stay byte-identical to the
	// perfect channel.
	var zero Link
	var clean earthplus.SystemSpec
	zero.ApplyToSpec(&clean)
	if clean.Params != nil {
		t.Fatalf("zero link flags touched the spec: %+v", clean)
	}
}

// TestFlagValidationPath pins the satellite bugfix: every bad flag value
// — -linkloss out of range, an unknown -evictpolicy — surfaces through
// ONE error path (FirstError, which MustValidate routes to the uniform
// one-line fatal report) instead of erroring mid-run or panicking.
func TestFlagValidationPath(t *testing.T) {
	bad := []struct {
		name   string
		groups []Validator
	}{
		{"linkloss negative", []Validator{&Link{Loss: -0.5}}},
		{"linkloss above one", []Validator{&Link{Loss: 1.5}}},
		{"linkloss NaN", []Validator{&Link{Loss: math.NaN()}}},
		{"evictpolicy unknown", []Validator{&Storage{Policy: "random"}}},
		{"second group bad", []Validator{&Storage{}, &Link{Loss: 2}}},
	}
	for _, tc := range bad {
		if err := FirstError(tc.groups...); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	ok := []Validator{
		&Storage{}, &Storage{Policy: "lru"}, &Storage{Policy: "schedule"},
		&Link{}, &Link{Loss: 1}, &Link{Loss: 0.01, Seed: 7},
	}
	if err := FirstError(ok...); err != nil {
		t.Fatalf("valid flag groups rejected: %v", err)
	}
}

func TestDatasetResolution(t *testing.T) {
	cases := []struct {
		name      string
		locations int
		sats      int
	}{
		{"rich", 11, 2},
		{"planet", 1, 7},
		{"planet-sampled", 1, 7},
		{"planet-natural", 1, 7},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var d Dataset
		d.Register(fs, "planet", 8)
		if err := fs.Parse([]string{"-dataset", c.name, "-sats", "7"}); err != nil {
			t.Fatal(err)
		}
		cfg, err := d.SceneConfig()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(cfg.Locations) != c.locations {
			t.Fatalf("%s: %d locations, want %d", c.name, len(cfg.Locations), c.locations)
		}
		if got := d.Constellation().Satellites; got != c.sats {
			t.Fatalf("%s: %d satellites, want %d", c.name, got, c.sats)
		}
	}
}

func TestDatasetUnknownName(t *testing.T) {
	d := Dataset{Name: "mars"}
	if _, err := d.SceneConfig(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := d.Env(); err == nil {
		t.Fatal("Env accepted an unknown dataset")
	}
}

func TestDatasetEnv(t *testing.T) {
	d := Dataset{Name: "planet", Sats: 4}
	env, err := d.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.Scene == nil || env.Orbit.Satellites != 4 || env.Downlink.Bps != 200e6 {
		t.Fatalf("env = %+v", env)
	}
	if d.FullSize {
		t.Fatal("FullSize default should be false")
	}
	full := Dataset{Name: "rich", FullSize: true}
	cfg, err := full.SceneConfig()
	if err != nil {
		t.Fatal(err)
	}
	quick := Dataset{Name: "rich"}
	quickCfg, _ := quick.SceneConfig()
	if cfg.Width <= quickCfg.Width {
		t.Fatalf("fullsize width %d not larger than quick %d", cfg.Width, quickCfg.Width)
	}
}

func TestFleetFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Fleet
	f.Register(fs)
	if err := fs.Parse([]string{"-stations", "3", "-contactbudget", "2048"}); err != nil {
		t.Fatal(err)
	}
	if f.Stations != 3 || f.ContactBudget != 2048 {
		t.Fatalf("parsed %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	var spec earthplus.SystemSpec
	f.ApplyToSpec(&spec)
	if spec.Params["stations"] != 3 || spec.Params["contact_budget"] != 2048 {
		t.Fatalf("spec %+v", spec)
	}
	// Unset fleet flags leave the spec untouched: presence of "stations" is
	// meaningful, and default runs must stay byte-identical to the flat
	// per-day budget.
	var zero Fleet
	var clean earthplus.SystemSpec
	zero.ApplyToSpec(&clean)
	if clean.Params != nil {
		t.Fatalf("zero fleet flags touched the spec: %+v", clean)
	}
	// A derived (zero) contact budget sets only the station count.
	derive := Fleet{Stations: 2}
	var derived earthplus.SystemSpec
	derive.ApplyToSpec(&derived)
	if derived.Params["stations"] != 2 {
		t.Fatalf("derived spec %+v", derived)
	}
	if _, ok := derived.Params["contact_budget"]; ok {
		t.Fatalf("zero contact budget leaked into the spec: %+v", derived)
	}
}

func TestFleetValidation(t *testing.T) {
	bad := []Validator{
		&Fleet{Stations: -1},
		&Fleet{ContactBudget: 100},
		&Fleet{ContactBudget: -1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Fatalf("bad fleet config %d accepted: %+v", i, v)
		}
	}
	ok := []Validator{
		&Fleet{},
		&Fleet{Stations: 1},
		&Fleet{Stations: 2, ContactBudget: -1},
		&Fleet{Stations: 4, ContactBudget: 4096},
	}
	if err := FirstError(ok...); err != nil {
		t.Fatalf("valid fleet configs rejected: %v", err)
	}
}

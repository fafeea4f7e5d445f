// Package cli holds the flag plumbing shared by every executable under
// cmd/: the engine worker flag (-simworkers), the system-param flag groups
// (storage, link, ground stations) with their one mapping onto a
// SystemSpec, the dataset selection flags (-dataset, -sats, -fullsize)
// with their environment construction, and uniform fatal-error reporting.
// The cmds themselves speak only the public pkg/earthplus API; this
// package exists so five main functions do not each re-implement the same
// plumbing.
package cli

import (
	"flag"
	"fmt"
	"os"

	"earthplus/pkg/earthplus"
)

// Perf bundles the performance flags of the cmds that run the simulation
// engine.
type Perf struct {
	// SimWorkers bounds the locations simulated concurrently per day.
	SimWorkers int
}

// Register installs the performance flags on fs.
func (p *Perf) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.SimWorkers, "simworkers", 0,
		"locations simulated concurrently per day (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
}

// SystemParams bundles the flag groups that become system params — the
// on-board store, the link and the ground stations — so every simulation
// cmd registers, validates and applies them the same way.
type SystemParams struct {
	Storage Storage
	Link    Link
	Fleet   Fleet
}

// Register installs every group's flags on fs.
func (p *SystemParams) Register(fs *flag.FlagSet) {
	p.Storage.Register(fs)
	p.Link.Register(fs)
	p.Fleet.Register(fs)
}

// Validate returns the first group's validation failure, or nil.
func (p *SystemParams) Validate() error {
	return FirstError(&p.Storage, &p.Link, &p.Fleet)
}

// ApplyToSpec sets every group's parsed values as explicit params on spec.
func (p *SystemParams) ApplyToSpec(spec *earthplus.SystemSpec) {
	p.Storage.ApplyToSpec(spec)
	p.Link.ApplyToSpec(spec)
	p.Fleet.ApplyToSpec(spec)
}

// Storage bundles the on-board reference-store flags shared by the
// simulation cmds: the byte budget of the satellite store and the
// eviction policy that decides which reference goes first when it fills.
type Storage struct {
	// Bytes is the store budget: 0 = the paper's Table 1 default
	// (360 GB), negative = explicitly unlimited.
	Bytes int64
	// Policy is the eviction policy ("lru" | "schedule"; empty = lru).
	Policy string
	// RefCompress stores on-board references compressed (encoded at the
	// uplink's lossy reference rate; decode-on-visit) instead of as raw
	// planes.
	RefCompress bool
	// TiledStore switches every codec pass in the loop to the tiled
	// (EPT1) codestream profile: per-tile splices on delta uplinks and
	// region decode-on-visit. Off keeps the monolithic v1 profile byte
	// for byte.
	TiledStore bool
}

// Register installs the storage flags on fs.
func (s *Storage) Register(fs *flag.FlagSet) {
	fs.Int64Var(&s.Bytes, "storage", 0,
		"on-board reference-store budget in bytes (0 = paper default 360 GB, negative = unlimited)")
	fs.StringVar(&s.Policy, "evictpolicy", "",
		"reference-store eviction policy: lru | schedule (empty = lru)")
	fs.BoolVar(&s.RefCompress, "refcompress", false,
		"store on-board references compressed (~2-5x more locations per storage budget, paid in decode-on-visit work; default off)")
	fs.BoolVar(&s.TiledStore, "tiledstore", false,
		"use the tiled (EPT1) codestream profile for updates, downloads and the store: per-tile splices and region decode (default off = monolithic v1 profile)")
}

// Validate rejects flag values no run could honour, so a typo fails with
// one line on stderr before any simulation starts instead of erroring
// mid-run.
func (s *Storage) Validate() error {
	switch s.Policy {
	case "", "lru", "schedule":
		return nil
	default:
		return fmt.Errorf("-evictpolicy must be lru or schedule, got %q", s.Policy)
	}
}

// ApplyToSpec sets the parsed values as explicit system params on spec —
// only when the flags were actually set, so the system defaults survive
// (and systems without a reference store reject them loudly).
func (s *Storage) ApplyToSpec(spec *earthplus.SystemSpec) {
	if s.Bytes != 0 {
		if spec.Params == nil {
			spec.Params = map[string]float64{}
		}
		spec.Params["storage_bytes"] = float64(s.Bytes)
	}
	if s.Policy != "" {
		if spec.StrParams == nil {
			spec.StrParams = map[string]string{}
		}
		spec.StrParams["evict_policy"] = s.Policy
	}
	if s.RefCompress {
		if spec.StrParams == nil {
			spec.StrParams = map[string]string{}
		}
		spec.StrParams["ref_compression"] = "on"
	}
	if s.TiledStore {
		if spec.StrParams == nil {
			spec.StrParams = map[string]string{}
		}
		spec.StrParams["tiled_store"] = "on"
	}
}

// Link bundles the fault-injected ground↔satellite channel flags shared
// by the simulation cmds: an aggregate loss rate spread over frame drops,
// corruptions, truncations and contact cancellations, and the seed that
// picks the deterministic fault pattern.
type Link struct {
	// Loss is the aggregate fault rate in [0,1]; 0 keeps the perfect
	// channel and is byte-identical to not having the flag at all.
	Loss float64
	// Seed picks the fault pattern; runs are byte-identical at any worker
	// count for a fixed seed.
	Seed uint64
}

// Register installs the link flags on fs.
func (l *Link) Register(fs *flag.FlagSet) {
	fs.Float64Var(&l.Loss, "linkloss", 0,
		"aggregate link fault rate in [0,1], spread over frame drops, corruptions, truncations and contact cancellations (0 = perfect channel)")
	fs.Uint64Var(&l.Seed, "linkseed", 1,
		"seed of the deterministic link fault pattern (meaningful only with -linkloss > 0)")
}

// Validate rejects an out-of-range loss rate up front.
func (l *Link) Validate() error {
	if l.Loss != l.Loss || l.Loss < 0 || l.Loss > 1 {
		return fmt.Errorf("-linkloss must be in [0,1], got %v", l.Loss)
	}
	return nil
}

// ApplyToSpec sets the parsed values as explicit system params on spec —
// only when a loss rate was actually set, so default runs stay
// byte-identical to the perfect channel (and systems without a link
// model reject the params loudly).
func (l *Link) ApplyToSpec(spec *earthplus.SystemSpec) {
	if l.Loss != 0 {
		if spec.Params == nil {
			spec.Params = map[string]float64{}
		}
		spec.Params["link_loss"] = l.Loss
		spec.Params["link_seed"] = float64(l.Seed)
	}
}

// Fleet bundles the constellation ground-segment flags shared by the
// simulation cmds: the contended ground-station count and the per-contact
// uplink budget that replaces the flat per-day budget when enabled.
type Fleet struct {
	// Stations is the ground-station count; 0 keeps the flat per-day
	// uplink budget (byte-identical to not having the flag at all).
	Stations int
	// ContactBudget is the uplink byte budget of one contact window:
	// 0 derives it from the flat per-day budget, negative = unlimited.
	// Meaningful only with -stations > 0.
	ContactBudget int64
}

// Register installs the fleet flags on fs.
func (f *Fleet) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Stations, "stations", 0,
		"contended ground stations, each serving one satellite per contact window (0 = flat per-day uplink budget)")
	fs.Int64Var(&f.ContactBudget, "contactbudget", 0,
		"uplink bytes per contact window (0 = derive from the flat per-day budget, negative = unlimited; needs -stations)")
}

// Validate rejects combinations no run could honour.
func (f *Fleet) Validate() error {
	if f.Stations < 0 {
		return fmt.Errorf("-stations must be non-negative, got %d", f.Stations)
	}
	if f.ContactBudget != 0 && f.Stations == 0 {
		return fmt.Errorf("-contactbudget %d needs -stations > 0", f.ContactBudget)
	}
	return nil
}

// ApplyToSpec sets the parsed values as explicit system params on spec —
// only when stations were actually requested, so default runs keep the
// flat-budget behavior byte for byte (and systems without a ground-segment
// model reject the params loudly).
func (f *Fleet) ApplyToSpec(spec *earthplus.SystemSpec) {
	if f.Stations == 0 {
		return
	}
	if spec.Params == nil {
		spec.Params = map[string]float64{}
	}
	spec.Params["stations"] = float64(f.Stations)
	if f.ContactBudget != 0 {
		spec.Params["contact_budget"] = float64(f.ContactBudget)
	}
}

// Dataset bundles the dataset-selection flags and the environment
// construction every simulation cmd repeats.
type Dataset struct {
	// Name picks the dataset: rich | planet | planet-natural.
	Name string
	// Sats is the constellation size for the planet datasets.
	Sats int
	// FullSize selects the larger scene scale.
	FullSize bool
}

// Register installs the dataset flags on fs with the given defaults.
func (d *Dataset) Register(fs *flag.FlagSet, defaultName string, defaultSats int) {
	fs.StringVar(&d.Name, "dataset", defaultName,
		"dataset: rich | planet (cloud-sampled) | planet-natural")
	fs.IntVar(&d.Sats, "sats", defaultSats, "number of satellites in the constellation (planet datasets)")
	fs.BoolVar(&d.FullSize, "fullsize", false, "use the larger scene size")
}

// size resolves the scene scale.
func (d *Dataset) size() earthplus.SceneSize {
	if d.FullSize {
		return earthplus.SizeFull
	}
	return earthplus.SizeQuick
}

// SceneConfig resolves the dataset name to a scene configuration.
func (d *Dataset) SceneConfig() (earthplus.SceneConfig, error) {
	switch d.Name {
	case "rich":
		return earthplus.RichContent(d.size()), nil
	case "planet", "planet-sampled":
		return earthplus.LargeConstellationSampled(d.size()), nil
	case "planet-natural":
		return earthplus.LargeConstellation(d.size()), nil
	default:
		return earthplus.SceneConfig{}, fmt.Errorf("unknown dataset %q (rich | planet | planet-natural)", d.Name)
	}
}

// Constellation returns the dataset's fleet: the Sentinel-2-like pair for
// rich content, a Doves-like fleet of Sats satellites otherwise.
func (d *Dataset) Constellation() earthplus.Constellation {
	if d.Name == "rich" {
		return earthplus.Constellation{Satellites: 2, RevisitDays: 10}
	}
	return earthplus.Constellation{Satellites: d.Sats, RevisitDays: 12}
}

// Env assembles the simulation environment for the selected dataset with
// the standard Doves downlink contact model.
func (d *Dataset) Env() (*earthplus.Env, error) {
	cfg, err := d.SceneConfig()
	if err != nil {
		return nil, err
	}
	return &earthplus.Env{
		Scene:    earthplus.NewScene(cfg),
		Orbit:    d.Constellation(),
		Downlink: earthplus.LinkBudget{Bps: 200e6, SecondsPerContact: 600, ContactsPerDay: 7},
	}, nil
}

// Validator is a flag group that can reject its parsed values.
type Validator interface {
	Validate() error
}

// FirstError returns the first validation failure among the parsed flag
// groups, or nil.
func FirstError(groups ...Validator) error {
	for _, g := range groups {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MustValidate routes every flag group's validation through the one
// fatal-error path: the first bad value prints a single line on stderr
// and exits nonzero, before any simulation work starts.
func MustValidate(cmd string, groups ...Validator) {
	if err := FirstError(groups...); err != nil {
		Fail(cmd, "%v", err)
	}
}

// Fail reports a fatal cmd error and exits.
func Fail(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
	os.Exit(1)
}

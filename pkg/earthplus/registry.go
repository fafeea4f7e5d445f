package earthplus

import (
	"earthplus/internal/registry"

	// The built-in systems self-register with the registry in their init
	// functions; importing the public API guarantees they are available.
	_ "earthplus/internal/baseline"
	_ "earthplus/internal/core"
)

// Registered names of the built-in systems.
const (
	// SystemEarthPlus is the paper's contribution: constellation-wide
	// reference-based on-board compression.
	SystemEarthPlus = "earthplus"
	// SystemKodan discards cloudy data with an expensive on-board
	// detector and downloads every remaining tile (§6.1).
	SystemKodan = "kodan"
	// SystemSatRoI runs reference-based encoding against a fixed
	// on-board reference that is never refreshed (§6.1).
	SystemSatRoI = "satroi"
)

// SystemSpec is the unified system configuration: γ (bits per pixel per
// downloaded tile), an optional change threshold θ, codec options, and
// system-specific knobs by name under Params (for Earth+:
// "guarantee_days", "guarantee_max_cloud", "reject_cloud_frac",
// "ref_downsample", "lookahead_days", "drop_coverage", "ref_bpp",
// "storage_bytes", "link_loss", "link_seed", "stations",
// "contact_budget") and StrParams (for Earth+ and SatRoI:
// "evict_policy" = "lru" | "schedule"; for Earth+ also
// "ref_compression", "tiled_store" and "constellation" = "on" | "off").
// "storage_bytes" bounds the on-board reference store (explicit
// non-positive = unlimited; absent = the Table 1 default of 360 GB);
// SatRoI shares both storage knobs so the storage sweep bounds its
// full-resolution store the same way. "link_loss" in [0,1] spreads a
// deterministic fault rate, seeded by "link_seed", over the
// ground↔satellite link (absent = the perfect channel). "stations"
// books that many contended ground stations, each serving one satellite
// per contact window, with "contact_budget" uplink bytes per window (0 =
// derived from the flat per-day budget, negative = unlimited; absent
// stations = the flat per-day budget). "ref_compression" stores
// on-board references encoded at the uplink's reference rate
// (decode-on-visit) and "tiled_store" switches every codec pass to the
// tiled profile. The zero value means the system's defaults; unknown
// Params or StrParams keys are a CodeBadConfig error.
type SystemSpec = registry.Spec

// SystemFactory builds a configured system for an environment.
type SystemFactory = registry.Factory

// Register installs a system factory under a new name, making it
// constructible by NewSystem, the experiment sweeps and the serving
// layer. Registering a taken name panics.
func Register(name string, factory SystemFactory) { registry.Register(name, factory) }

// NewSystem builds the named system for env. Unknown names return a
// CodeUnknownSystem error listing what is registered.
func NewSystem(name string, env *Env, spec SystemSpec) (System, error) {
	return registry.New(name, env, spec)
}

// Systems lists the registered system names, sorted.
func Systems() []string { return registry.Names() }

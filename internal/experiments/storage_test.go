package experiments

import (
	"strings"
	"testing"

	"earthplus/internal/baseline"
	"earthplus/internal/core"
	"earthplus/internal/sat"
	"earthplus/internal/scene"
)

// TestRefWorkingSetUsesResolvedRate pins the satellite-task regression:
// the working-set math must read the bits-per-sample off the RESOLVED
// cache configuration, not a hard-coded 16. At a non-16 rate the per-
// location footprint follows the configured rate exactly (ceil division
// included), and the zero value resolves to the shared raw constant.
func TestRefWorkingSetUsesResolvedRate(t *testing.T) {
	cfg := scene.Config{Width: 20, Height: 10, Bands: scene.RichContent(scene.Quick).Bands}
	cfg.Locations = scene.RichContent(scene.Quick).Locations[:3]
	samples := int64(20) * 10 * int64(len(cfg.Bands))

	got := refWorkingSet(cfg, 1, sat.CacheConfig{BitsPerSample: 12})
	want := 3 * ((samples*12 + 7) / 8)
	if got != want {
		t.Fatalf("12-bit working set %d, want %d", got, want)
	}
	// The zero config resolves to the shared raw rate — the same constant
	// core.RefStoreBitsPerSample and the SatRoI store alias.
	if sat.RawBitsPerSample != core.RefStoreBitsPerSample {
		t.Fatalf("rate constants drifted: sat %d vs core %d", sat.RawBitsPerSample, core.RefStoreBitsPerSample)
	}
	got = refWorkingSet(cfg, 1, sat.CacheConfig{})
	want = 3 * ((samples*sat.RawBitsPerSample + 7) / 8)
	if got != want {
		t.Fatalf("default-rate working set %d, want %d", got, want)
	}
	// And the Earth+ derivation matches what core's resolved config says,
	// not an independent constant.
	def := core.DefaultConfig()
	if earthRefWorkingSet(cfg) != refWorkingSet(cfg, def.RefDownsample, def.CacheConfig()) {
		t.Fatal("earthRefWorkingSet diverged from the resolved core CacheConfig derivation")
	}
}

// TestStorageSweepMonotoneAndExercised pins the sweep's contract: as the
// on-board budget shrinks, each reference-based system's compression
// ratio never increases, the smallest budget point actually evicts and
// misses (the fallback path runs), the unlimited point never misses, and
// Kodan's line is flat because it keeps no reference state. The
// ref_compression=on Earth+ series runs at the SAME absolute budgets as
// the raw one and must be no worse at every bounded point — and strictly
// better (more resident references, or fewer evictions/misses) where the
// raw store is under pressure.
func TestStorageSweepMonotoneAndExercised(t *testing.T) {
	res, err := StorageSweep(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 4 || len(res.Fracs) != len(storageBudgetFracs) {
		t.Fatalf("sweep shape: %d systems, %d fracs", len(res.Systems), len(res.Fracs))
	}
	series := map[string]StorageSystemSeries{}
	for _, s := range res.Systems {
		series[s.label()] = s
	}
	compLabel := core.SystemName + " (ref_compression=on)"
	for _, name := range []string{core.SystemName, compLabel, baseline.SatRoIName} {
		s, ok := series[name]
		if !ok {
			t.Fatalf("sweep missing system %q", name)
		}
		for i := 1; i < len(s.Ratio); i++ {
			if s.Ratio[i] > s.Ratio[i-1]+1e-9 {
				t.Fatalf("%s: ratio increased as the budget shrank: %v", name, s.Ratio)
			}
		}
		if s.Misses[0] != 0 {
			t.Fatalf("%s: unlimited budget still missed %d lookups", name, s.Misses[0])
		}
		if len(s.Resident) != len(s.Ratio) || len(s.FootprintBytes) != len(s.Ratio) {
			t.Fatalf("%s: residency series incomplete", name)
		}
		if s.Resident[0] == 0 || s.FootprintBytes[0] <= 0 {
			t.Fatalf("%s: unlimited run holds no references (%d, %d bytes)", name, s.Resident[0], s.FootprintBytes[0])
		}
		for i, fp := range s.FootprintBytes {
			// Budgets are per satellite; residency is a fleet sum.
			if b := s.BudgetBytes[i] * int64(res.Satellites); s.BudgetBytes[i] > 0 && fp > b {
				t.Fatalf("%s: fleet footprint %d exceeds fleet capacity %d at point %d", name, fp, b, i)
			}
		}
	}
	raw, comp := series[core.SystemName], series[compLabel]
	// The raw store must come under pressure somewhere for the comparison
	// to mean anything.
	last := len(raw.Ratio) - 1
	if raw.Evictions[last] == 0 || raw.Misses[last] == 0 {
		t.Fatalf("raw Earth+: smallest budget did not exercise eviction/miss: %d/%d",
			raw.Evictions[last], raw.Misses[last])
	}
	if raw.Ratio[last] >= raw.Ratio[0] {
		t.Fatalf("raw Earth+: ratio %v did not degrade under the smallest budget", raw.Ratio)
	}
	// Compressed storage achieves a measured rate well below the raw
	// 16 bits/sample...
	if comp.EffBitsPerSample <= 0 || comp.EffBitsPerSample >= float64(sat.RawBitsPerSample) {
		t.Fatalf("compressed measured rate %.2f bits/sample, want in (0, %d)", comp.EffBitsPerSample, sat.RawBitsPerSample)
	}
	// ...and at EQUAL budgets it is never worse and strictly better under
	// pressure: every bounded point keeps at least as many references
	// resident with no more evictions/misses, and wherever the raw store
	// evicted at all, the compressed one either holds strictly more
	// references or evicts/misses strictly less.
	pressured := 0
	for i := 1; i < len(raw.Ratio); i++ {
		if comp.BudgetBytes[i] != raw.BudgetBytes[i] {
			t.Fatalf("budget mismatch at point %d: %d vs %d", i, comp.BudgetBytes[i], raw.BudgetBytes[i])
		}
		if comp.Resident[i] < raw.Resident[i] || comp.Evictions[i] > raw.Evictions[i] || comp.Misses[i] > raw.Misses[i] {
			t.Fatalf("compressed store worse than raw at equal budget %d: resident %d vs %d, evictions %d vs %d, misses %d vs %d",
				raw.BudgetBytes[i], comp.Resident[i], raw.Resident[i], comp.Evictions[i], raw.Evictions[i], comp.Misses[i], raw.Misses[i])
		}
		if raw.Evictions[i] == 0 {
			continue // budget not binding for raw: equality is expected
		}
		pressured++
		if comp.Resident[i] <= raw.Resident[i] && comp.Evictions[i] >= raw.Evictions[i] && comp.Misses[i] >= raw.Misses[i] {
			t.Fatalf("compressed store not strictly better at pressured budget %d: resident %d vs %d, evictions %d vs %d, misses %d vs %d",
				raw.BudgetBytes[i], comp.Resident[i], raw.Resident[i], comp.Evictions[i], raw.Evictions[i], comp.Misses[i], raw.Misses[i])
		}
	}
	if pressured == 0 {
		t.Fatal("no sweep point put the raw store under pressure; the comparison proved nothing")
	}
	k := series[baseline.KodanName]
	for i := 1; i < len(k.Ratio); i++ {
		if k.Ratio[i] != k.Ratio[0] {
			t.Fatalf("Kodan line not flat: %v", k.Ratio)
		}
	}
	// The eviction-policy sweep records both policies for both bounded
	// systems at the same fixed budget.
	if len(res.PolicySweep) != 4 {
		t.Fatalf("policy sweep has %d points, want 4: %+v", len(res.PolicySweep), res.PolicySweep)
	}
	seen := map[string]bool{}
	for _, p := range res.PolicySweep {
		seen[p.System+"/"+p.Policy] = true
		if p.BudgetBytes <= 0 {
			t.Fatalf("policy sweep point %s/%s has no budget", p.System, p.Policy)
		}
	}
	for _, want := range []string{
		core.SystemName + "/lru", core.SystemName + "/schedule",
		baseline.SatRoIName + "/lru", baseline.SatRoIName + "/schedule",
	} {
		if !seen[want] {
			t.Fatalf("policy sweep missing %s (have %v)", want, seen)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "evictions") || !strings.Contains(out, "resident") ||
		!strings.Contains(out, "eviction-policy sweep") || res.ID() == "" {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

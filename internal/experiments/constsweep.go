package experiments

import (
	"fmt"
	"io"
	"reflect"

	"earthplus/internal/constellation"
	"earthplus/internal/core"
	"earthplus/internal/metrics"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// The constellation sweep measures the ground-segment regime the paper's
// deployment numbers imply but its evaluation never models: a fleet large
// enough that ground stations become the contended resource. Each point
// flies a fleet over the single-location Planet-like dataset with N
// contended stations — each serving one satellite per contact window, each
// contact metered by a per-contact uplink budget — and records how quality,
// contention stalls, re-seed backlog and event time-to-usable-image move as
// the fleet outgrows the ground segment.

// constSweepSats are the swept fleet sizes.
var constSweepSats = []int{4, 16, 64}

// constSweepStations are the swept ground-station counts.
var constSweepStations = []int{1, 2, 4}

// constConfig is the dataset the constellation runs fly: the Planet-like
// single coastal location (Table 2's large-constellation regime), whose
// fast-changing terrain keeps per-satellite uplink demand alive.
func constConfig(sc Scale) scene.Config {
	cfg := scene.LargeConstellation(sc.Size)
	if sc.MaxLocations > 0 && sc.MaxLocations < len(cfg.Locations) {
		cfg.Locations = cfg.Locations[:sc.MaxLocations]
	}
	return cfg
}

// constSnapshotScale sizes the constellation sweep recorded in
// BENCH_sim.json: one location and a short evaluation window — a 64-sat
// fleet over one location already generates the contention the sweep
// measures, and anything larger would dominate the snapshot's runtime.
func constSnapshotScale() Scale {
	return Scale{
		Size:         scene.Quick,
		ProfileStart: 0,
		ProfileDays:  25,
		EvalStart:    40,
		EvalDays:     12,
		MaxLocations: 1,
	}
}

// constStatser is implemented by systems running the contended
// ground-station model (Earth+).
type constStatser interface {
	ConstellationStats() constellation.Stats
	ContactBudget() int64
	ContactLog() []sim.ContactRecord
}

// ConstPoint is one measured (fleet size, station count) cell.
type ConstPoint struct {
	Satellites int `json:"satellites"`
	Stations   int `json:"stations"`
	// MeanPSNR is quality over the evaluation window; under contention
	// satellites fly stale references longer, so it degrades with the
	// fleet/station ratio.
	MeanPSNR float64 `json:"mean_psnr"`
	// UpBytesPerDay is the fleet's uplink consumption; every byte moved
	// inside a booked contact window's meter.
	UpBytesPerDay float64 `json:"uplink_bytes_per_day"`
	// ContactBudgetBytes is the per-contact uplink budget the point ran
	// with (-1 = unlimited).
	ContactBudgetBytes int64 `json:"contact_budget_bytes"`
	// Contacts counts booked (station, window) slots over the run.
	Contacts int64 `json:"contacts"`
	// Stalls counts satellite-days with pending uplink work that won no
	// contact window.
	Stalls int64 `json:"contention_stalls"`
	// ReseedBacklog sums per-day fleet-wide pending re-seed locations;
	// MaxReseedBacklog is the worst single day.
	ReseedBacklog    int64 `json:"reseed_backlog"`
	MaxReseedBacklog int64 `json:"max_reseed_backlog"`
	// Events is the event workload's time-to-usable-image outcome.
	Events constellation.EventSummary `json:"events"`
}

// ConstSweepResult is the contended ground-station sweep.
type ConstSweepResult struct {
	// Sats and Stations are the swept axes.
	Sats     []int `json:"satellites"`
	Stations []int `json:"stations"`
	// ThresholdPSNR is the usable-image bar of the event workload.
	ThresholdPSNR float64      `json:"threshold_psnr"`
	Points        []ConstPoint `json:"points"`
}

// ConstellationSweep measures Earth+ under contended ground stations on
// the Planet-like dataset: fleet sizes x station counts, each with derived
// per-contact budgets, recording quality, contention and the event
// workload's time-to-usable-image.
func ConstellationSweep(sc Scale) (*ConstSweepResult, error) {
	cfg := constConfig(sc)
	theta := profiledTheta(sc, cfg, 4)

	res := &ConstSweepResult{
		Sats:          constSweepSats,
		Stations:      constSweepStations,
		ThresholdPSNR: constellation.DefaultUsablePSNR,
	}
	for _, sats := range constSweepSats {
		for _, stations := range constSweepStations {
			env := envFor(sc, cfg, DenseOrbit(sats), defaultUplinkDivisor)
			spec := registry.Spec{
				GammaBPP: fig12Gamma,
				Theta:    theta,
				Params:   map[string]float64{"stations": float64(stations)},
			}
			sys, err := registry.New(core.SystemName, env, spec)
			if err != nil {
				return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: %w", sats, stations, err)
			}
			tracker := constellation.NewEventTracker(env.Scene, sc.EvalStart, sc.EvalStart+sc.EvalDays, 0)
			env.Observer = tracker
			acc := sim.NewAccumulator()
			r, err := runSystemStream(sc, env, sys, acc.Add)
			if err != nil {
				return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: %w", sats, stations, err)
			}
			cs, ok := sys.(constStatser)
			if !ok {
				return nil, fmt.Errorf("constellation sweep: system does not report constellation stats")
			}
			// Every contact's consumption must respect its meter: a byte
			// over the per-contact budget would mean the packer leaked
			// around the contact accounting.
			budget := cs.ContactBudget()
			contacts := cs.ContactLog()
			if len(contacts) == 0 {
				return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: no contacts booked", sats, stations)
			}
			for _, ct := range contacts {
				if budget > 0 && ct.Bytes > budget {
					return nil, fmt.Errorf("constellation sweep: %d sats / %d stations: contact (sat %d, station %d, day %d) moved %d bytes over the %d-byte budget",
						sats, stations, ct.Sat, ct.Station, ct.Day, ct.Bytes, budget)
				}
			}
			sum := acc.Summary(r, dovesDownlink())
			st := cs.ConstellationStats()
			res.Points = append(res.Points, ConstPoint{
				Satellites:         sats,
				Stations:           stations,
				MeanPSNR:           sum.MeanPSNR,
				UpBytesPerDay:      sum.MeanUpBytesPerDay,
				ContactBudgetBytes: budget,
				Contacts:           st.Contacts,
				Stalls:             st.Stalls,
				ReseedBacklog:      st.ReseedBacklog,
				MaxReseedBacklog:   st.MaxReseedBacklog,
				Events:             tracker.Summary(),
			})
		}
	}
	return res, nil
}

// constDeterminismCheck runs a contended 16-satellite / 2-station Earth+
// configuration at each worker count and reports whether every run is
// identical to the serial one — records, per-day uplink bytes AND the
// contact log — and whether station contention actually fired (an
// uncontended run would prove nothing). The scheduler runs on the
// sequential day-end barrier, so the worker count must not change a single
// booking.
func constDeterminismCheck(sc Scale, workers []int) (deterministic, contended bool, err error) {
	run := func(w int) ([]sim.Record, map[int]int64, []sim.ContactRecord, bool, error) {
		cfg := constConfig(sc)
		env := envFor(sc, cfg, DenseOrbit(16), defaultUplinkDivisor)
		env.Parallelism = w
		spec := registry.Spec{
			GammaBPP: fig12Gamma,
			Params:   map[string]float64{"stations": 2},
		}
		sys, err := registry.New(core.SystemName, env, spec)
		if err != nil {
			return nil, nil, nil, false, err
		}
		var recs []sim.Record
		r, err := runSystemStream(sc, env, sys, func(rec *sim.Record) { recs = append(recs, *rec) })
		if err != nil {
			return nil, nil, nil, false, err
		}
		cs := sys.(constStatser)
		return recs, r.UpBytesByDay, cs.ContactLog(), cs.ConstellationStats().Stalls > 0, nil
	}
	serialRecs, serialUp, serialContacts, serialContended, err := run(1)
	if err != nil {
		return false, false, err
	}
	deterministic, contended = true, serialContended
	for _, w := range workers {
		if w <= 1 {
			continue
		}
		recs, up, contacts, fired, err := run(w)
		if err != nil {
			return false, false, err
		}
		if !sim.RecordsEqualIgnoringTimings(serialRecs, recs) ||
			!reflect.DeepEqual(serialUp, up) ||
			!reflect.DeepEqual(serialContacts, contacts) {
			deterministic = false
		}
		contended = contended && fired
	}
	return deterministic, contended, nil
}

// ID implements Result.
func (r *ConstSweepResult) ID() string { return "Constellation contention sweep" }

// Render implements Result.
func (r *ConstSweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "contended ground stations (one satellite per contact window; usable-image bar %.1f dB)\n", r.ThresholdPSNR)
	rows := [][]string{{"sats", "stations", "PSNR", "uplink B/day", "contact B",
		"contacts", "stalls", "reseed backlog", "max backlog", "events", "usable", "mean TTUI", "max TTUI"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Satellites),
			fmt.Sprintf("%d", p.Stations),
			fmt.Sprintf("%.1f", p.MeanPSNR),
			fmt.Sprintf("%.0f", p.UpBytesPerDay),
			fmt.Sprintf("%d", p.ContactBudgetBytes),
			fmt.Sprintf("%d", p.Contacts),
			fmt.Sprintf("%d", p.Stalls),
			fmt.Sprintf("%d", p.ReseedBacklog),
			fmt.Sprintf("%d", p.MaxReseedBacklog),
			fmt.Sprintf("%d", p.Events.Tracked),
			fmt.Sprintf("%d", p.Events.Usable),
			fmt.Sprintf("%.1fd", p.Events.MeanDaysToUsable),
			fmt.Sprintf("%dd", p.Events.MaxDaysToUsable),
		})
	}
	metrics.Table(w, rows)
	fmt.Fprintln(w, "(TTUI = time-to-usable-image: days from event onset to the first downlinked")
	fmt.Fprintln(w, " frame scoring the usable bar over the event's tiles; stalls count")
	fmt.Fprintln(w, " satellite-days whose pending uplink work won no contact window)")
	return nil
}

package earthplus

import "earthplus/internal/experiments"

// Scale sizes an experiment run: scene size, profiling and evaluation
// windows, and the sweep points. It also carries the run's explicit
// configuration: SimWorkers (Env.Parallelism of every experiment
// environment) and EarthPlus, a SystemSpec whose Params and StrParams are
// laid over the Earth+ runs of the figure reproductions.
type Scale = experiments.Scale

// ExperimentResult is one regenerated table or figure.
type ExperimentResult = experiments.Result

// ExperimentJob pairs a stable key with the function regenerating one
// evaluation artefact.
type ExperimentJob = experiments.Job

// QuickScale is the fast default experiment scale.
func QuickScale() Scale { return experiments.QuickScale() }

// FullScale runs closer to paper scale.
func FullScale() Scale { return experiments.FullScale() }

// Experiments lists every regenerable artefact of the paper's evaluation
// at a scale, in render order. benchJSON names the file the codec
// performance snapshot writes (empty = don't write).
func Experiments(sc Scale, benchJSON string) []ExperimentJob {
	return experiments.Catalog(sc, benchJSON)
}

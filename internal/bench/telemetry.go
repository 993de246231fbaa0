package bench

import (
	"tameir/internal/core"
	"tameir/internal/telemetry"
)

// PublishProcessMetrics folds the process-wide collector the bench
// experiments feed — the shared verified-run program cache — into reg.
// It is scheduling-class: the experiments interleave their compiles
// through one cache, so the hit/miss split depends on which experiment
// (and which of its workers) got there first.
func PublishProcessMetrics(reg *telemetry.Registry) {
	core.SharedProgramCache().Stats().Publish(reg, telemetry.Scheduling)
}

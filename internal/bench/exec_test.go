package bench

import (
	"strings"
	"testing"
)

// TestExecTwinsAgree is the quick version of the E12 experiment: both
// engines, serial and pooled, must produce byte-identical behaviour
// digests and verdicts over the same pre-built pairs, in both
// semantics.
func TestExecTwinsAgree(t *testing.T) {
	workers := []int{1, 2}
	rows := MeasureExec(2, 40, workers)
	wantRows := 2 * len(workers) * len(ExecEngines)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	perMode := len(workers) * len(ExecEngines)
	for i, r := range rows {
		base := rows[i/perMode*perMode] // the mode's interpreted workers=1 row
		if base.Engine != "interpreted" || base.Workers != 1 {
			t.Fatalf("row ordering broken: baseline for %s/%s/w%d is %s/%s/w%d",
				r.Mode, r.Engine, r.Workers, base.Mode, base.Engine, base.Workers)
		}
		if r.Mode != base.Mode {
			t.Fatalf("row %d: mode %s under baseline mode %s", i, r.Mode, base.Mode)
		}
		if r.BehaviorHash != base.BehaviorHash {
			t.Errorf("%s/%s/w%d: behaviour hash %s diverges from baseline %s",
				r.Mode, r.Engine, r.Workers, r.BehaviorHash, base.BehaviorHash)
		}
		if r.Execs != base.Execs {
			t.Errorf("%s/%s/w%d: execution count %d diverges from baseline %d",
				r.Mode, r.Engine, r.Workers, r.Execs, base.Execs)
		}
		if !r.TwinOK {
			t.Errorf("%s/%s/w%d: TwinOK is false", r.Mode, r.Engine, r.Workers)
		}
		if r.Checks == 0 || r.Execs == 0 {
			t.Errorf("%s/%s/w%d: empty experiment (%d checks, %d execs)",
				r.Mode, r.Engine, r.Workers, r.Checks, r.Execs)
		}
	}

	var sb strings.Builder
	ReportExec(&sb, rows)
	for _, want := range []string{"behavior-hash", "compiled", "interpreted"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// BenchmarkExecEngines reports per-engine throughput on the §6
// workload; the ratio is the compiled engine's speedup.
func BenchmarkExecEngines(b *testing.B) {
	for _, engine := range ExecEngines {
		b.Run(engine, func(b *testing.B) {
			pairs, sem := buildExecPairs(false, 3, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := measureExecEngine(pairs, sem, "legacy", engine, 1, 1)
				b.ReportMetric(r.ExecsPerSec, "execs/sec")
			}
		})
	}
}

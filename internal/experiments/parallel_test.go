package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"kwo/internal/par"
)

// scenarioSnapshots runs four independent seeds through a fan-out of
// the given worker count and returns each run's full telemetry
// snapshot.
func scenarioSnapshots(t *testing.T, workers int) [][]byte {
	t.Helper()
	seeds := []int64{11, 12, 13, 14}
	return par.Map(len(seeds), workers, func(i int) []byte {
		cfg, gen := oversizedBI(1)
		run := Scenario{Name: "par-det", Seed: seeds[i], Orig: cfg, Gen: gen,
			PreDays: 1, KwoDays: 1}.Execute()
		var buf bytes.Buffer
		if err := run.Engine.Store().WriteSnapshot(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	})
}

// The load-bearing promise of the parallel runner: per-seed results are
// byte-identical to the sequential run — parallelism changes wall-clock
// time, never output.
func TestParallelScenariosByteIdenticalToSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario simulation in -short mode")
	}
	seq := scenarioSnapshots(t, 1)
	conc := scenarioSnapshots(t, runtime.GOMAXPROCS(0))
	for i := range seq {
		if !bytes.Equal(seq[i], conc[i]) {
			t.Fatalf("seed index %d: parallel snapshot (%d bytes) differs from sequential (%d bytes)",
				i, len(conc[i]), len(seq[i]))
		}
	}
}

package rl

import (
	"math"
	"math/rand"
	"testing"

	"kwo/internal/action"
	"kwo/internal/ml"
)

// randomTransitions returns n transitions over random states, mostly
// non-terminal so the bootstrap runs, each with its own next state.
func randomTransitions(rng *rand.Rand, n int) []ml.Transition {
	ts := make([]ml.Transition, n)
	for i := range ts {
		s, next := make([]float64, StateDim), make([]float64, StateDim)
		for j := range s {
			s[j], next[j] = rng.Float64(), rng.Float64()
		}
		ts[i] = ml.Transition{State: s, Action: rng.Intn(action.NumKinds),
			Reward: rng.NormFloat64(), NextState: next, Terminal: i%5 == 0}
	}
	return ts
}

// TestBootstrapMemoMatchesRecompute runs two agents from one seed; the
// second empties the bootstrap memo before every training step, so it
// recomputes every max_a Q_target(next). A 50-slot buffer makes ring
// eviction overwrite memoized slots, and SyncEvery 7 makes target syncs
// land mid-run, so both invalidation points are exercised. Q-values
// and step counts must stay bit-identical.
func TestBootstrapMemoMatchesRecompute(t *testing.T) {
	c := DefaultConfig()
	c.BufferSize = 50
	c.SyncEvery = 7
	c.BatchSize = 16
	memo := NewAgent(rand.New(rand.NewSource(31)), c)
	fresh := NewAgent(rand.New(rand.NewSource(31)), c)
	data := rand.New(rand.NewSource(32))
	probe := randomTransitions(data, 1)[0].State

	hits := 0
	for round := 0; round < 12; round++ {
		batch := randomTransitions(data, 10+round*7)
		memo.Pretrain(batch, 30)
		for _, tr := range batch {
			fresh.add(tr)
		}
		for i := 0; i < 30; i++ {
			clear(fresh.boot)
			fresh.trainStep()
		}
		for _, v := range memo.boot {
			if v != 0 {
				hits++
			}
		}
		for _, tr := range randomTransitions(data, 9) {
			memo.Observe(tr)
			fresh.add(tr)
			clear(fresh.boot)
			fresh.trainStep()
		}
		if memo.Steps() != fresh.Steps() {
			t.Fatalf("round %d: steps %d vs %d", round, memo.Steps(), fresh.Steps())
		}
		qm, qf := memo.Q(probe), fresh.Q(probe)
		for i := range qm {
			if math.Float64bits(qm[i]) != math.Float64bits(qf[i]) {
				t.Fatalf("round %d: Q[%d] = %v with memo, %v recomputed", round, i, qm[i], qf[i])
			}
		}
	}
	if hits == 0 {
		t.Fatal("memo never held an entry; the test exercised nothing")
	}
}

func TestQReturnsCopy(t *testing.T) {
	a := NewAgent(rand.New(rand.NewSource(33)), DefaultConfig())
	s := make([]float64, StateDim)
	q := a.Q(s)
	keep := q[0]
	s[0] = 1
	a.Q(s)
	if q[0] != keep {
		t.Fatal("Q result changed under a later call; smart-model callers keep Q-vectors")
	}
}

// TestTrainStepAllocsSteadyState pins the kernel's allocation-free
// steady state: once the replay ring is full, an online Observe (add,
// sample, bootstrap, 32 SGD steps) allocates nothing.
func TestTrainStepAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	c := DefaultConfig()
	c.BufferSize = 64
	a := NewAgent(rand.New(rand.NewSource(34)), c)
	ts := randomTransitions(rand.New(rand.NewSource(35)), 100)
	for _, tr := range ts {
		a.Observe(tr)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		a.Observe(ts[i%len(ts)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// BenchmarkPretrain1500 measures one production retrain: DefaultConfig,
// ~700 historical transitions, 1500 pretrain steps of 32 single-sample
// SGD updates each, on a fresh agent per iteration.
func BenchmarkPretrain1500(b *testing.B) {
	ts := randomTransitions(rand.New(rand.NewSource(36)), 700)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAgent(rand.New(rand.NewSource(37)), DefaultConfig())
		a.Pretrain(ts, 1500)
	}
}

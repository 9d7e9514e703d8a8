package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forwardNaive is the allocating forward pass the scratch-based one
// replaced: it returns every layer's activations (acts[0] is a copy of
// the input), allocating each. It is the oracle the production kernel
// must match bit for bit.
func forwardNaive(m *MLP, x []float64) [][]float64 {
	acts := [][]float64{append([]float64(nil), x...)}
	cur := acts[0]
	for _, l := range m.layers {
		z := l.w.MulVec(cur)
		for i := range z {
			z[i] += l.b[i]
		}
		a := make([]float64, len(z))
		for i, v := range z {
			a[i] = l.act.apply(v)
		}
		acts = append(acts, a)
		cur = a
	}
	return acts
}

// trainStepNaive is the allocating backpropagation step the
// scratch-based TrainStep replaced. It also reports how many gradient
// components GradClip clamped, so the oracle test can prove the
// clipping branch ran.
func trainStepNaive(m *MLP, x, target []float64, mask []bool) (loss float64, clipped int) {
	acts := forwardNaive(m, x)
	out := acts[len(acts)-1]
	delta := make([]float64, len(out))
	for i := range out {
		if mask != nil && !mask[i] {
			continue
		}
		e := out[i] - target[i]
		delta[i] = e * m.layers[len(m.layers)-1].act.derivative(out[i])
		loss += e * e
	}
	lr := m.LearningRate
	if lr == 0 {
		lr = 1e-3
	}
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := acts[li]
		var nextDelta []float64
		if li > 0 {
			nextDelta = make([]float64, len(in))
		}
		for i := 0; i < l.w.Rows; i++ {
			d := delta[i]
			if d == 0 {
				continue
			}
			if m.GradClip > 0 {
				if math.Abs(d) > m.GradClip {
					clipped++
				}
				d = Clamp(d, -m.GradClip, m.GradClip)
			}
			row := l.w.Row(i)
			for j := range row {
				if nextDelta != nil {
					nextDelta[j] += row[j] * delta[i]
				}
				row[j] -= lr * d * in[j]
			}
			l.b[i] -= lr * d
		}
		if li > 0 {
			prevAct := m.layers[li-1].act
			for j := range nextDelta {
				nextDelta[j] *= prevAct.derivative(acts[li][j])
			}
			delta = nextDelta
		}
	}
	return loss, clipped
}

// sameBits fails the test unless a and b hold bit-identical floats.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v (%#x) vs oracle %v (%#x)", what, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// TestMLPKernelMatchesOracle trains two clones of one network, one
// through the scratch-based Forward/TrainStep and one through the
// allocating oracle, on the same random stream of masked and unmasked
// examples with gradient clipping on, and requires bit-identical
// losses, outputs, weights and biases throughout.
func TestMLPKernelMatchesOracle(t *testing.T) {
	for _, hidden := range []Activation{ActReLU, ActTanh} {
		t.Run(fmt.Sprintf("hidden-act-%d", hidden), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			base := NewMLP(rng, 13, 32, 32, 9)
			for i := range base.layers[:len(base.layers)-1] {
				base.layers[i].act = hidden
			}
			base.LearningRate = 5e-3
			base.GradClip = 1.0
			fast, oracle := base.Clone(), base.Clone()

			x := make([]float64, 13)
			target := make([]float64, 9)
			mask := make([]bool, 9)
			var clipped, masked int
			for step := 0; step < 2500; step++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for i := range target {
					// Occasional large targets push output errors past
					// GradClip.
					target[i] = rng.NormFloat64() * float64(1+9*(step%3))
				}
				m := mask
				if step%2 == 0 {
					clear(mask)
					mask[rng.Intn(len(mask))] = true
					masked++
				} else {
					m = nil
				}
				got := fast.TrainStep(x, target, m)
				want, c := trainStepNaive(oracle, x, target, m)
				clipped += c
				sameBits(t, fmt.Sprintf("step %d loss", step), []float64{got}, []float64{want})
				if step%97 == 0 {
					sameBits(t, fmt.Sprintf("step %d output", step), fast.Forward(x), forwardNaive(oracle, x)[len(oracle.layers)])
				}
			}
			if clipped == 0 || masked == 0 {
				t.Fatalf("oracle run did not exercise clipping (%d) and masking (%d)", clipped, masked)
			}
			for li := range fast.layers {
				sameBits(t, fmt.Sprintf("layer %d weights", li), fast.layers[li].w.Data, oracle.layers[li].w.Data)
				sameBits(t, fmt.Sprintf("layer %d biases", li), fast.layers[li].b, oracle.layers[li].b)
			}
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			sameBits(t, "final output", fast.Forward(x), forwardNaive(oracle, x)[len(oracle.layers)])
		})
	}
}

func TestMLPForwardIsScratchView(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(13)), 2, 4, 1)
	a := m.Forward([]float64{1, 0})
	if b := m.Forward([]float64{0, 1}); &a[0] != &b[0] {
		t.Fatal("Forward allocated a fresh output; the documented contract is a scratch view")
	}
	if c := m.Clone(); &c.Forward([]float64{1, 0})[0] == &a[0] {
		t.Fatal("clone shares scratch with its source")
	}
}

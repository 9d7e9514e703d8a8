package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// ActReLU is max(0, x).
	ActReLU Activation = iota
	// ActTanh is the hyperbolic tangent.
	ActTanh
	// ActIdentity passes values through (output layers of regressors).
	ActIdentity
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivative is expressed in terms of the activation output y.
func (a Activation) derivative(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActTanh:
		return 1 - y*y
	default:
		return 1
	}
}

type layer struct {
	w   *Matrix // out × in
	b   []float64
	act Activation
}

// MLP is a feed-forward network trained with backpropagation and SGD
// (with optional gradient clipping). It is the function approximator
// behind the DQN in internal/rl.
//
// Forward and TrainStep are allocation-free after the first call: each
// network owns per-layer activation and delta scratch, built lazily and
// overwritten by every call. An MLP is therefore not safe for
// concurrent use, not even for concurrent Forward calls.
type MLP struct {
	layers []layer
	// LearningRate is the SGD step size (default 1e-3 if zero).
	LearningRate float64
	// GradClip bounds each gradient component's magnitude; 0 disables.
	GradClip float64

	// acts[i] is layer i's output and deltas[i] its error term from the
	// latest forward/backward pass.
	acts   [][]float64
	deltas [][]float64
}

// NewMLP builds a network with the given layer widths, e.g.
// NewMLP(rng, 8, 32, 32, 4) for 8 inputs, two hidden layers of 32, and
// 4 outputs. Hidden layers use ReLU; the output layer is linear.
// Weights use He initialization from the provided source.
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("ml: MLP needs at least input and output widths")
	}
	m := &MLP{LearningRate: 1e-3}
	for i := 0; i < len(widths)-1; i++ {
		in, out := widths[i], widths[i+1]
		w := NewMatrix(out, in)
		scale := math.Sqrt(2.0 / float64(in))
		for k := range w.Data {
			w.Data[k] = rng.NormFloat64() * scale
		}
		act := ActReLU
		if i == len(widths)-2 {
			act = ActIdentity
		}
		m.layers = append(m.layers, layer{w: w, b: make([]float64, out), act: act})
	}
	return m
}

// Widths returns the layer widths (input first).
func (m *MLP) Widths() []int {
	out := []int{m.layers[0].w.Cols}
	for _, l := range m.layers {
		out = append(out, l.w.Rows)
	}
	return out
}

// Forward evaluates the network on one input vector. The result is a
// view of the network's scratch: it is valid until the next Forward or
// TrainStep on this network. Callers that keep it must copy it.
//
// Each unit folds row·input left to right from zero, then adds its
// bias — the order every stored weight and golden output was produced
// with.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.layers[0].w.Cols {
		panic(fmt.Sprintf("ml: input length %d, network expects %d", len(x), m.layers[0].w.Cols))
	}
	if m.acts == nil {
		m.acts = make([][]float64, len(m.layers))
		m.deltas = make([][]float64, len(m.layers))
		for i, l := range m.layers {
			m.acts[i] = make([]float64, l.w.Rows)
			m.deltas[i] = make([]float64, l.w.Rows)
		}
	}
	in := x
	for li, l := range m.layers {
		out := m.acts[li]
		n := len(in)
		i := 0
		// Four units at a time: four independent sums in flight hide
		// the add latency, while each sum still folds its own row in
		// order.
		for ; i+4 <= len(out); i += 4 {
			r0 := l.w.Data[i*n:][:n]
			r1 := l.w.Data[(i+1)*n:][:n]
			r2 := l.w.Data[(i+2)*n:][:n]
			r3 := l.w.Data[(i+3)*n:][:n]
			var s0, s1, s2, s3 float64
			for j, v := range in {
				s0 += r0[j] * v
				s1 += r1[j] * v
				s2 += r2[j] * v
				s3 += r3[j] * v
			}
			out[i] = l.act.apply(s0 + l.b[i])
			out[i+1] = l.act.apply(s1 + l.b[i+1])
			out[i+2] = l.act.apply(s2 + l.b[i+2])
			out[i+3] = l.act.apply(s3 + l.b[i+3])
		}
		for ; i < len(out); i++ {
			row := l.w.Data[i*n:][:n]
			var s float64
			for j, v := range in {
				s += row[j] * v
			}
			out[i] = l.act.apply(s + l.b[i])
		}
		in = out
	}
	return in
}

// TrainStep performs one backpropagation step toward target on a single
// example, minimizing ½‖out − target‖². mask, if non-nil, zeroes the
// error on unmasked outputs — the DQN updates only the taken action's
// Q-value. Returns the (masked) squared error before the step.
func (m *MLP) TrainStep(x, target []float64, mask []bool) float64 {
	out := m.Forward(x)
	if len(target) != len(out) {
		panic(fmt.Sprintf("ml: target length %d, output %d", len(target), len(out)))
	}
	last := len(m.layers) - 1
	// Output delta.
	delta := m.deltas[last]
	clear(delta)
	var loss float64
	for i := range out {
		if mask != nil && !mask[i] {
			continue
		}
		e := out[i] - target[i]
		delta[i] = e * m.layers[last].act.derivative(out[i])
		loss += e * e
	}
	lr := m.LearningRate
	if lr == 0 {
		lr = 1e-3
	}
	// Backpropagate layer by layer. Per weight, the next delta folds
	// the pre-update weight times the unclipped delta; the update uses
	// the clipped one.
	for li := last; li >= 0; li-- {
		l := m.layers[li]
		in := x
		var nextDelta []float64
		if li > 0 {
			in = m.acts[li-1]
			nextDelta = m.deltas[li-1]
			clear(nextDelta)
		}
		n := len(in)
		for i, di := range delta {
			if di == 0 {
				continue
			}
			d := di
			if m.GradClip > 0 {
				d = Clamp(d, -m.GradClip, m.GradClip)
			}
			step := lr * d
			row := l.w.Data[i*n:][:n]
			if nextDelta != nil {
				nd := nextDelta[:n]
				for j, v := range in {
					nd[j] += row[j] * di
					row[j] -= step * v
				}
			} else {
				for j, v := range in {
					row[j] -= step * v
				}
			}
			l.b[i] -= step
		}
		if li > 0 {
			prevAct := m.layers[li-1].act
			for j, v := range in {
				nextDelta[j] *= prevAct.derivative(v)
			}
			delta = nextDelta
		}
	}
	return loss
}

// Clone returns a deep copy of the parameters — used for DQN target
// networks. The copy builds its own scratch on first use.
func (m *MLP) Clone() *MLP {
	c := &MLP{LearningRate: m.LearningRate, GradClip: m.GradClip}
	for _, l := range m.layers {
		c.layers = append(c.layers, layer{
			w:   l.w.Clone(),
			b:   append([]float64(nil), l.b...),
			act: l.act,
		})
	}
	return c
}

// CopyFrom overwrites this network's parameters with src's (same
// architecture required) — the DQN's periodic target sync.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.layers) != len(src.layers) {
		panic("ml: CopyFrom architecture mismatch")
	}
	for i := range m.layers {
		if m.layers[i].w.Rows != src.layers[i].w.Rows || m.layers[i].w.Cols != src.layers[i].w.Cols {
			panic("ml: CopyFrom layer shape mismatch")
		}
		copy(m.layers[i].w.Data, src.layers[i].w.Data)
		copy(m.layers[i].b, src.layers[i].b)
	}
}

package ml

import "math/rand"

// Transition is one reinforcement-learning experience tuple.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64
	Terminal  bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with
// uniform random sampling — standard DQN experience replay. The paper
// notes KWO's DRL "benefits from having access to large historical
// telemetry data"; offline pre-training fills this buffer from history
// before any live action is taken.
type ReplayBuffer struct {
	capacity int
	buf      []Transition
	next     int
}

// NewReplayBuffer allocates a buffer holding up to capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &ReplayBuffer{capacity: capacity, buf: make([]Transition, 0, capacity)}
}

// Add stores a transition, evicting the oldest when full, and returns
// the slot it wrote. Slots are stable: a slot holds the same transition
// until a later Add overwrites it.
func (b *ReplayBuffer) Add(t Transition) int {
	if len(b.buf) < b.capacity {
		b.buf = append(b.buf, t)
		return len(b.buf) - 1
	}
	slot := b.next
	b.buf[slot] = t
	b.next = (b.next + 1) % b.capacity
	return slot
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return len(b.buf) }

// At returns the transition in slot i (0 ≤ i < Len()).
func (b *ReplayBuffer) At(i int) Transition { return b.buf[i] }

// Sample draws n slots uniformly with replacement into dst[:0] and
// returns it. It returns every slot in order, without drawing, if the
// buffer holds n or fewer transitions.
func (b *ReplayBuffer) Sample(dst []int, rng *rand.Rand, n int) []int {
	dst = dst[:0]
	if len(b.buf) <= n {
		for i := range b.buf {
			dst = append(dst, i)
		}
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, rng.Intn(len(b.buf)))
	}
	return dst
}

package obs

// Epoch-aligned export/import of recorded series: the codec behind the
// fleet's crash-recovery checkpoints and the portal's offline fleet
// view. Unlike SeriesDump — a display rendering with float unix-second
// timestamps — a SeriesSnapshot is full fidelity: timestamps are int64
// UnixNano (a float64 cannot represent nanosecond epochs exactly) and
// per-point fold counts are retained, so a restored series continues
// appending and downsampling exactly where the original would have.

import (
	"fmt"
	"time"
)

// SnapPoint is one retained bucket in a SeriesSnapshot: bucket-ending
// UnixNano timestamp, aggregated value, and fold count (the AggMean
// weight).
type SnapPoint struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
	N int     `json:"n"`
}

// SeriesSnapshot is the versioned-checkpoint encoding of a Series. Two
// identical series always marshal to identical JSON bytes (fixed field
// order, shortest round-trip floats), so checkpoint verification can
// compare snapshots byte for byte.
type SeriesSnapshot struct {
	Name   string      `json:"name"`
	Agg    string      `json:"agg"`
	Budget int         `json:"budget"`
	Stride int         `json:"stride"`
	Points []SnapPoint `json:"points,omitempty"`
	// Pend is the provisional partial bucket, if one is accumulating.
	Pend *SnapPoint `json:"pend,omitempty"`
}

func snapPoint(p point) SnapPoint {
	return SnapPoint{T: p.t.UnixNano(), V: p.v, N: p.n}
}

func (sp SnapPoint) point() point {
	return point{t: time.Unix(0, sp.T).UTC(), v: sp.V, n: sp.N}
}

// Snapshot exports the series' full internal state.
func (s *Series) Snapshot() SeriesSnapshot {
	snap := SeriesSnapshot{
		Name:   s.name,
		Agg:    s.agg.String(),
		Budget: s.budget,
		Stride: s.stride,
	}
	if len(s.pts) > 0 {
		snap.Points = make([]SnapPoint, len(s.pts))
		for i, p := range s.pts {
			snap.Points[i] = snapPoint(p)
		}
	}
	if s.pend.n > 0 {
		p := snapPoint(s.pend)
		snap.Pend = &p
	}
	return snap
}

// parseAgg decodes an Agg wire name (the Agg.String values).
func parseAgg(s string) (Agg, error) {
	switch s {
	case "last":
		return AggLast, nil
	case "sum":
		return AggSum, nil
	case "max":
		return AggMax, nil
	case "mean":
		return AggMean, nil
	}
	return AggLast, fmt.Errorf("obs: unknown series agg %q", s)
}

// RestoreSeries rebuilds a Series from a snapshot. The restored series
// behaves identically to the original under further Appends.
func RestoreSeries(snap SeriesSnapshot) (*Series, error) {
	agg, err := parseAgg(snap.Agg)
	if err != nil {
		return nil, fmt.Errorf("obs: restore series %q: %w", snap.Name, err)
	}
	if snap.Budget < 4 || snap.Budget%2 == 1 {
		return nil, fmt.Errorf("obs: restore series %q: invalid budget %d", snap.Name, snap.Budget)
	}
	if snap.Stride < 1 {
		return nil, fmt.Errorf("obs: restore series %q: invalid stride %d", snap.Name, snap.Stride)
	}
	if len(snap.Points) > snap.Budget {
		return nil, fmt.Errorf("obs: restore series %q: %d points over budget %d",
			snap.Name, len(snap.Points), snap.Budget)
	}
	s := &Series{name: snap.Name, agg: agg, budget: snap.Budget, stride: snap.Stride}
	for _, sp := range snap.Points {
		s.pts = append(s.pts, sp.point())
	}
	if snap.Pend != nil {
		s.pend = snap.Pend.point()
	}
	return s, nil
}

// RecorderSnapshot captures a Recorder's mutable state: every series
// plus the previous-tick counter values and histogram buckets that make
// delta and quantile modes per-interval. The sample specs themselves are
// configuration, not state — a restore target must be built over the
// same specs.
type RecorderSnapshot struct {
	Series   []SeriesSnapshot `json:"series"`
	Prev     []float64        `json:"prev"`
	PrevHist [][]uint64       `json:"prev_hist"`
}

// Snapshot exports the recorder's state in spec order.
func (rec *Recorder) Snapshot() RecorderSnapshot {
	snap := RecorderSnapshot{
		Series:   make([]SeriesSnapshot, len(rec.series)),
		Prev:     append([]float64(nil), rec.prev...),
		PrevHist: make([][]uint64, len(rec.prevHist)),
	}
	for i, s := range rec.series {
		snap.Series[i] = s.Snapshot()
	}
	for i, h := range rec.prevHist {
		if h != nil {
			snap.PrevHist[i] = append([]uint64(nil), h...)
		}
	}
	return snap
}

// Restore replaces the recorder's state with a snapshot taken from a
// recorder over the same sample specs. Subsequent Samples continue
// exactly as the snapshotted recorder would have (same deltas, same
// quantile baselines, same downsampling cadence).
func (rec *Recorder) Restore(snap RecorderSnapshot) error {
	if len(snap.Series) != len(rec.specs) || len(snap.Prev) != len(rec.specs) ||
		len(snap.PrevHist) != len(rec.specs) {
		return fmt.Errorf("obs: recorder restore: snapshot has %d/%d/%d series/prev/hist entries, recorder has %d specs",
			len(snap.Series), len(snap.Prev), len(snap.PrevHist), len(rec.specs))
	}
	series := make([]*Series, len(rec.specs))
	for i, sp := range rec.specs {
		if snap.Series[i].Name != sp.Name {
			return fmt.Errorf("obs: recorder restore: series %d is %q, spec expects %q",
				i, snap.Series[i].Name, sp.Name)
		}
		s, err := RestoreSeries(snap.Series[i])
		if err != nil {
			return err
		}
		series[i] = s
	}
	rec.series = series
	rec.prev = append([]float64(nil), snap.Prev...)
	rec.prevHist = make([][]uint64, len(snap.PrevHist))
	for i, h := range snap.PrevHist {
		if h != nil {
			rec.prevHist[i] = append([]uint64(nil), h...)
		}
	}
	for i, s := range rec.series {
		rec.gLast[i].Set(s.Last())
		rec.gPts[i].Set(float64(s.Len()))
	}
	return nil
}

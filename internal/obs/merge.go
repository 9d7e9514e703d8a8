package obs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// LabeledRegistry pairs a registry with the label value distinguishing
// it in a merged exposition — for the fleet runner, the tenant id.
type LabeledRegistry struct {
	// Label is the label VALUE attached to every sample of this
	// registry (the label name is WriteMergedPrometheus's argument).
	Label    string
	Registry *Registry
}

// WriteMergedPrometheus renders several registries as one Prometheus
// text exposition, prepending labelName="<Label>" to every sample so
// per-source series stay distinct. Each family's HELP/TYPE header is
// written once; series appear grouped by source in the order given
// (sources should be passed in a stable order — tenant index order in
// the fleet — so output is deterministic for deterministic inputs).
//
// Registries sharing a family name must agree on its type and its
// label names (the full name list, not just the count); a mismatch is
// an error, because merging it would produce an exposition no strict
// parser should accept.
//
// The exposition streams: each (family, source) is snapshotted under a
// short registry lock, then rendered lock-free into a pooled buffer
// that is flushed to w after every family. Peak memory is O(largest
// single family), not O(total series across all tenants) — a 1024-
// tenant scrape never materializes the merged exposition in memory.
// Output bytes are identical to the pre-streaming renderer (pinned by
// TestMergedStreamingMatchesNaive).
func WriteMergedPrometheus(w io.Writer, labelName string, regs []LabeledRegistry) error {
	type meta struct {
		help   string
		typ    MetricType
		labels []string
	}
	metas := make(map[string]meta)
	names := make([]string, 0)
	for _, lr := range regs {
		r := lr.Registry
		if r == nil {
			continue
		}
		r.mu.Lock()
		for n, f := range r.families {
			m, ok := metas[n]
			if !ok {
				metas[n] = meta{help: f.help, typ: f.typ, labels: f.labels}
				names = append(names, n)
				continue
			}
			if m.typ != f.typ || !slices.Equal(m.labels, f.labels) {
				r.mu.Unlock()
				return fmt.Errorf("obs: family %q disagrees across registries (type %v/%v, labels %v/%v)",
					n, m.typ, f.typ, m.labels, f.labels)
			}
		}
		r.mu.Unlock()
	}
	slices.Sort(names)
	s := mergeScratchPool.Get().(*mergeScratch)
	defer mergeScratchPool.Put(s)
	buf := &s.buf
	for _, n := range names {
		m := metas[n]
		buf.Reset()
		buf.WriteString("# HELP ")
		buf.WriteString(n)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(m.help))
		buf.WriteString("\n# TYPE ")
		buf.WriteString(n)
		buf.WriteByte(' ')
		buf.WriteString(m.typ.String())
		buf.WriteByte('\n')
		for _, lr := range regs {
			if lr.Registry == nil {
				continue
			}
			if s.snapshotFamily(lr.Registry, n) {
				s.renderFamily(labelName, lr.Label)
			}
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// seriesSnap is one series' values copied out from under the registry
// lock. labelValues aliases the live slice — label values are immutable
// after series creation — while the mutable histogram counts are copied
// into the scratch's flat buffer.
type seriesSnap struct {
	labelValues []string
	val         float64
	sum         float64
	count       uint64
	countsOff   int
	countsLen   int
}

// mergeScratch is the reusable working set of one streaming merge:
// the render buffer, one family's snapshot, and a number-formatting
// scratch. Pooled so steady-state scrapes allocate O(families), not
// O(series).
type mergeScratch struct {
	buf     bytes.Buffer
	name    string
	typ     MetricType
	labels  []string  // family label names (aliases the live slice)
	buckets []float64 // histogram upper bounds (aliases the live slice)
	keys    []string
	series  []seriesSnap
	counts  []uint64
	num     []byte
	le      []byte
}

// infBound is the +Inf bucket bound, shared so rendering it never
// allocates.
var infBound = []byte("+Inf")

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// snapshotFamily copies family n of r into the scratch under the
// registry lock, series in sorted key order. Returns false when r has
// no such family.
func (s *mergeScratch) snapshotFamily(r *Registry, n string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[n]
	if !ok {
		return false
	}
	s.name, s.typ, s.labels, s.buckets = f.name, f.typ, f.labels, f.buckets
	s.keys = append(s.keys[:0], f.order...)
	slices.Sort(s.keys)
	s.series = s.series[:0]
	s.counts = s.counts[:0]
	for _, k := range s.keys {
		se := f.series[k]
		snap := seriesSnap{labelValues: se.labelValues, val: se.val, sum: se.sum, count: se.count}
		if f.typ == TypeHistogram {
			snap.countsOff, snap.countsLen = len(s.counts), len(se.counts)
			s.counts = append(s.counts, se.counts...)
		}
		s.series = append(s.series, snap)
	}
	return true
}

// renderFamily renders the snapshotted family into s.buf with
// extraName="extraValue" prepended to every sample's label set,
// byte-identical to writeFamilySeries. No locks are held; every number
// is appended through the scratch, so rendering itself is
// allocation-free.
func (s *mergeScratch) renderFamily(extraName, extraValue string) {
	b := &s.buf
	for _, sn := range s.series {
		switch s.typ {
		case TypeHistogram:
			var cum uint64
			counts := s.counts[sn.countsOff : sn.countsOff+sn.countsLen]
			for i, ub := range s.buckets {
				cum += counts[i]
				s.le = strconv.AppendFloat(s.le[:0], ub, 'g', -1, 64)
				s.bucketLine(extraName, extraValue, sn.labelValues, s.le, cum)
			}
			cum += counts[len(s.buckets)]
			s.bucketLine(extraName, extraValue, sn.labelValues, infBound, cum)
			b.WriteString(s.name)
			b.WriteString("_sum")
			s.labelBlock(extraName, extraValue, sn.labelValues)
			b.WriteByte(' ')
			s.num = strconv.AppendFloat(s.num[:0], sn.sum, 'g', -1, 64)
			b.Write(s.num)
			b.WriteByte('\n')
			b.WriteString(s.name)
			b.WriteString("_count")
			s.labelBlock(extraName, extraValue, sn.labelValues)
			b.WriteByte(' ')
			s.num = strconv.AppendUint(s.num[:0], sn.count, 10)
			b.Write(s.num)
			b.WriteByte('\n')
		default:
			b.WriteString(s.name)
			s.labelBlock(extraName, extraValue, sn.labelValues)
			b.WriteByte(' ')
			s.num = strconv.AppendFloat(s.num[:0], sn.val, 'g', -1, 64)
			b.Write(s.num)
			b.WriteByte('\n')
		}
	}
}

// bucketLine renders one `name_bucket{…,le="bound"} cum` sample. le is
// always present, so the block is never empty; its bytes are a 'g'-
// formatted float or "+Inf" — clean ASCII, quoted verbatim.
func (s *mergeScratch) bucketLine(extraName, extraValue string, values []string, le []byte, cum uint64) {
	b := &s.buf
	b.WriteString(s.name)
	b.WriteString("_bucket{")
	if s.appendPairs(extraName, extraValue, values) {
		b.WriteByte(',')
	}
	b.WriteString(`le="`)
	b.Write(le)
	b.WriteString(`"} `)
	s.num = strconv.AppendUint(s.num[:0], cum, 10)
	b.Write(s.num)
	b.WriteByte('\n')
}

// labelBlock renders {name="value",…} or nothing when there are no
// labels at all (only possible when extraName is empty).
func (s *mergeScratch) labelBlock(extraName, extraValue string, values []string) {
	if extraName == "" && len(s.labels) == 0 {
		return
	}
	s.buf.WriteByte('{')
	s.appendPairs(extraName, extraValue, values)
	s.buf.WriteByte('}')
}

// appendPairs writes the extra pair (when extraName is non-empty)
// followed by the family's label pairs, comma-separated. Reports
// whether anything was written.
func (s *mergeScratch) appendPairs(extraName, extraValue string, values []string) bool {
	b := &s.buf
	wrote := false
	if extraName != "" {
		b.WriteString(extraName)
		b.WriteByte('=')
		appendQuotedLabel(b, extraValue)
		wrote = true
	}
	for i, n := range s.labels {
		if wrote {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		appendQuotedLabel(b, values[i])
		wrote = true
	}
	return wrote
}

// appendQuotedLabel appends the label value quoted exactly as the
// non-streaming renderer's `%q` of escapeLabel(v): a clean printable-
// ASCII value takes the copy-free fast path; anything else falls back
// to the allocating strconv.Quote so the bytes stay identical.
func appendQuotedLabel(b *bytes.Buffer, v string) {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			b.WriteString(strconv.Quote(escapeLabel(v)))
			return
		}
	}
	b.WriteByte('"')
	b.WriteString(v)
	b.WriteByte('"')
}

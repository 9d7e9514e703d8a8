package obs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// mergeTestRegistry builds a registry shaped like a tenant hub:
// counters, gauges, and histograms, labeled and not, with values
// derived from idx so registries differ.
func mergeTestRegistry(idx, series int) *Registry {
	r := NewRegistry()
	r.NewCounter("kwo_plain_total", "plain counter").Add(float64(idx))
	g := r.NewGaugeVec("kwo_gauge", "labeled gauge", "warehouse", "state")
	cv := r.NewCounterVec("kwo_actions_total", "labeled counter", "kind")
	h := r.NewHistogramVec("kwo_latency_seconds", "latency", ExponentialBuckets(0.1, 2, 6), "warehouse")
	for s := 0; s < series; s++ {
		wh := fmt.Sprintf("WH_%d", s)
		g.With(wh, "running").Set(float64(idx*100 + s))
		cv.With(wh).Add(float64(s + 1))
		for o := 0; o <= s%5; o++ {
			h.With(wh).Observe(0.05 * float64(idx+o+1))
		}
	}
	return r
}

// writeMergedPrometheusNaive is the pre-streaming implementation: it
// renders every registry's families into one in-memory string while
// holding each registry lock, O(total series) peak. It is the oracle
// the streaming renderer is compared against.
func writeMergedPrometheusNaive(w io.Writer, labelName string, regs []LabeledRegistry) error {
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
	var b strings.Builder
	for _, n := range names {
		m := metas[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", n, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, m.typ)
		for _, lr := range regs {
			r := lr.Registry
			if r == nil {
				continue
			}
			r.mu.Lock()
			if f, ok := r.families[n]; ok {
				writeFamilySeries(&b, f, labelName, lr.Label)
			}
			r.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func mergeTestRegs(n, series int) []LabeledRegistry {
	regs := make([]LabeledRegistry, n)
	for i := range regs {
		regs[i] = LabeledRegistry{Label: fmt.Sprintf("t%03d", i), Registry: mergeTestRegistry(i, series)}
	}
	return regs
}

// TestMergedStreamingMatchesNaive pins the streaming renderer's output
// byte-for-byte to the pre-streaming in-memory implementation, across
// registries with partial family overlap, nil entries, escape-needing
// label values, and an empty label name (no extra label).
func TestMergedStreamingMatchesNaive(t *testing.T) {
	regs := mergeTestRegs(5, 7)
	// Partial overlap: one registry carries an extra family, another an
	// extra series with a label value that needs escaping.
	regs[1].Registry.NewCounter("kwo_only_here_total", "family missing elsewhere").Inc()
	regs[2].Registry.NewGaugeVec("kwo_gauge", "labeled gauge", "warehouse", "state").
		With(`nasty"wh\name`+"\nx", "suspended").Set(4.25)
	regs = append(regs, LabeledRegistry{Label: "tnil", Registry: nil})
	for _, labelName := range []string{"tenant", ""} {
		var fast, naive bytes.Buffer
		if err := WriteMergedPrometheus(&fast, labelName, regs); err != nil {
			t.Fatalf("streaming (label %q): %v", labelName, err)
		}
		if err := writeMergedPrometheusNaive(&naive, labelName, regs); err != nil {
			t.Fatalf("naive (label %q): %v", labelName, err)
		}
		if !bytes.Equal(fast.Bytes(), naive.Bytes()) {
			t.Fatalf("label %q: streaming output differs from naive renderer:\n--- streaming ---\n%s\n--- naive ---\n%s",
				labelName, firstDiff(fast.String(), naive.String()), "")
		}
		if _, err := ParseText(bytes.NewReader(fast.Bytes())); labelName != "" && err != nil {
			t.Fatalf("streamed exposition does not parse strictly: %v", err)
		}
	}
}

// firstDiff returns the region around the first differing byte, for
// readable failures.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d:\nfast:  %q\nnaive: %q", i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d", len(a), len(b))
}

// TestMergedLabelNameMismatch is the regression for the label-set
// consistency check: two registries sharing a family name with the SAME
// label count but DIFFERENT label names must refuse to merge — the old
// count-only check let them through.
func TestMergedLabelNameMismatch(t *testing.T) {
	a := NewRegistry()
	a.NewCounterVec("kwo_shared_total", "shared", "warehouse").With("WH").Inc()
	b := NewRegistry()
	b.NewCounterVec("kwo_shared_total", "shared", "kind").With("resize").Inc()
	regs := []LabeledRegistry{{Label: "t00", Registry: a}, {Label: "t01", Registry: b}}
	err := WriteMergedPrometheus(io.Discard, "tenant", regs)
	if err == nil {
		t.Fatal("same-count different-name label sets merged without error")
	}
	if !strings.Contains(err.Error(), "warehouse") || !strings.Contains(err.Error(), "kind") {
		t.Errorf("error should name both label sets, got: %v", err)
	}
	if naiveErr := writeMergedPrometheusNaive(io.Discard, "tenant", regs); naiveErr == nil {
		t.Error("naive reference renderer missed the label-name mismatch")
	}
}

// TestMergedTypeMismatch keeps the pre-existing type check intact.
func TestMergedTypeMismatch(t *testing.T) {
	a := NewRegistry()
	a.NewCounter("kwo_metric_total", "as counter").Inc()
	b := NewRegistry()
	b.NewGauge("kwo_metric_total", "as gauge").Set(1)
	err := WriteMergedPrometheus(io.Discard, "tenant", []LabeledRegistry{
		{Label: "t00", Registry: a}, {Label: "t01", Registry: b}})
	if err == nil {
		t.Fatal("type mismatch merged without error")
	}
}

// TestMergedScrapeAllocsFlat is the streaming renderer's allocation
// regression: steady-state allocations are O(families), independent of
// how many series each family carries — the exposition is never
// materialized. Catches any reintroduction of per-series string
// building or whole-output buffering.
func TestMergedScrapeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	measure := func(regs []LabeledRegistry) float64 {
		// Warm the pooled scratch so growth to high-water marks is not
		// billed to the steady state.
		if err := WriteMergedPrometheus(io.Discard, "tenant", regs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := WriteMergedPrometheus(io.Discard, "tenant", regs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(mergeTestRegs(4, 4))
	big := measure(mergeTestRegs(4, 256)) // 64× the series, same families
	if big > small*1.5+16 {
		t.Errorf("allocations scale with series count: %0.f allocs at 256 series/registry vs %0.f at 4",
			big, small)
	}
	wide := measure(mergeTestRegs(64, 16)) // 16× the registries
	perRegistry := (wide - small) / 60
	if perRegistry > 8 {
		t.Errorf("allocations grow %.1f/registry; streaming scrape should add O(1) per source (small=%0.f wide=%0.f)",
			perRegistry, small, wide)
	}
}

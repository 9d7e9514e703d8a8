package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"kwo/internal/obs"
)

// value is one reported metric: a number and its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness-gate verdict.
type check struct {
	Name string
	OK   bool
	Msg  string
}

// result is everything one run measured and checked. e2e holds every
// end-to-end metric that applies to the workload; layer holds the
// per-layer metrics of a traced run.
type result struct {
	e2e       map[string]value
	layer     map[string]value
	checks    []check
	attempted int
	failed    int
	notes     []string
}

func newResult() *result {
	return &result{e2e: map[string]value{}, layer: map[string]value{}}
}

func (r *result) set(name string, v float64, unit string) { r.e2e[name] = value{v, unit} }

func (r *result) setLayer(name string, v float64, unit string) { r.layer[name] = value{v, unit} }

// check records a gate verdict; ok=false makes the run incorrect.
func (r *result) check(name string, ok bool, msg string) {
	r.checks = append(r.checks, check{name, ok, msg})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// timer accumulates host-time spans by name.
type timer map[string][]time.Duration

// time runs fn and records its duration under name.
func (t timer) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t[name] = append(t[name], d)
	return d
}

func (t timer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t[name] {
		sum += d
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// median returns the middle value (mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, with that percentile and the sample count. With
// ten or fewer samples it falls back to the median.
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n <= 10 {
		return median(xs), 50, n
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // index of the order statistic with exactly ten above it
	return s[k], 100 * float64(k+1) / float64(n), n
}

// runtimeSample reads the runtime counters the per-layer metrics use.
type runtimeSample struct {
	gcCPU, allocBytes, allocObjects float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        sampleFloat(s[0]),
		allocBytes:   sampleFloat(s[1]),
		allocObjects: sampleFloat(s[2]),
	}
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapPeak tracks the highest live heap the program retains. At each
// simulated-day boundary and at the end of a round it collects
// garbage and reads the live heap, so the figure is the retained state
// rather than whichever transient a background collection happened to
// catch.
type heapPeak struct{ bytes float64 }

// sample is called at every hour boundary with the hours driven so far.
// Traced rounds are skipped: the profiler's own buffers would count.
func (h *heapPeak) sample(traced bool, hour int, last bool) {
	if traced || (hour%24 != 0 && !last) {
		return
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.bytes = math.Max(h.bytes, sampleFloat(s[0]))
}

func (h *heapPeak) mb() float64 { return h.bytes / (1 << 20) }

// settle collects garbage so each timed phase starts from the same
// heap state rather than inheriting set-up garbage.
func settle() { runtime.GC() }

// layerNames is the per-layer metric catalogue. Every traced run emits
// every name, with 0 where the workload does not exercise the layer.
// The CPU-by-layer metrics (*.cpu_s) are added by run.py, which splits
// the traced rounds' profiles.
var layerNames = []struct{ name, unit string }{
	{"fleet.new_ms", "ms"},
	{"fleet.run_epoch_ms", "ms"},
	{"fleet.finalize_ms", "ms"},
	{"fleet.checkpoint_ms", "ms"},
	{"fleet.checkpoint_bytes", "bytes"},
	{"fleet.resume_load_ms", "ms"},
	{"fleet.resume_replay_ms", "ms"},
	{"obs.scrape_ms.metrics", "ms"},
	{"obs.scrape_ms.kpis", "ms"},
	{"obs.scrape_ms.timeseries", "ms"},
	{"obs.scrape_ms.slo", "ms"},
	{"obs.scrape_bytes.metrics", "bytes"},
	{"obs.scrape_bytes.kpis", "bytes"},
	{"obs.scrape_bytes.timeseries", "bytes"},
	{"obs.scrape_bytes.slo", "bytes"},
	{"obs.scrape_late_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"core.estimate_savings_ms", "ms"},
	{"sim.twin_s", "s"},
	{"costmodel.train_ms", "ms"},
	{"core.offline_transitions_ms", "ms"},
	{"core.offline_transitions", "count"},
	{"costmodel.replay_ms", "ms"},
	{"rl.pretrain_ms", "ms"},
	{"rl.pretrain_allocs", "count"},
	{"rl.pretrain_mb", "MB"},
	{"telemetry.stats_us", "us"},
	{"core.decision_ticks", "count"},
	{"core.trainings", "count"},
	{"telemetry.queries", "count"},
	{"obs.events", "count"},
	{"costmodel.replays_incremental", "count"},
	{"costmodel.replays_scratch", "count"},
	{"costmodel.cursor_rebuilds", "count"},
	{"costmodel.replay_incremental_ratio", "ratio"},
	{"actuator.attempts", "count"},
	{"actuator.retries", "count"},
	{"actuator.failures", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"trace.overhead_pct", "%"},
}

// registryCounts reads the exact work counters from the registries.
func registryCounts(r *result, regs []*obs.Registry) {
	var ticks, trainings, queries, events, incr, scratch, rebuilds, attempts, retries, failures float64
	for _, reg := range regs {
		ticks += reg.CounterSum(obs.MetricDecisionTicks)
		trainings += reg.CounterSum(obs.MetricTrainings)
		queries += reg.CounterSum(obs.MetricQueries)
		events += reg.CounterSum(obs.MetricEvents)
		rebuilds += reg.CounterSum(obs.MetricCursorRebuilds)
		attempts += reg.CounterSum(obs.MetricActionAttempts)
		retries += reg.CounterSum(obs.MetricActionRetries)
		failures += reg.CounterSum(obs.MetricActionFailures)
		for _, fam := range reg.Snapshot() {
			if fam.Name != obs.MetricReplays {
				continue
			}
			mode := indexOf(fam.Labels, "mode")
			for _, s := range fam.Samples {
				switch s.LabelValues[mode] {
				case "incremental":
					incr += s.Value
				case "scratch":
					scratch += s.Value
				}
			}
		}
	}
	r.setLayer("core.decision_ticks", ticks, "count")
	r.setLayer("core.trainings", trainings, "count")
	r.setLayer("telemetry.queries", queries, "count")
	r.setLayer("obs.events", events, "count")
	r.setLayer("costmodel.replays_incremental", incr, "count")
	r.setLayer("costmodel.replays_scratch", scratch, "count")
	r.setLayer("costmodel.cursor_rebuilds", rebuilds, "count")
	if incr+scratch > 0 {
		r.setLayer("costmodel.replay_incremental_ratio", incr/(incr+scratch), "ratio")
	}
	r.setLayer("actuator.attempts", attempts, "count")
	r.setLayer("actuator.retries", retries, "count")
	r.setLayer("actuator.failures", failures, "count")
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// trainings sums kwo_trainings_total over the registries.
func trainings(regs []*obs.Registry) float64 {
	var n float64
	for _, reg := range regs {
		n += reg.CounterSum(obs.MetricTrainings)
	}
	return n
}

// rounds drives a workload's timed rounds. A run makes at least least
// rounds (two in a traced run), with the same inputs, and more until
// the program time they measure reaches --seconds. In a traced run every second round is
// traced: it records a CPU profile into the profile directory (and
// makes the workload's shadow calls) and its spans go to the traced
// timer. End-to-end metrics come from
// the untraced rounds only; trace.overhead_pct compares the two kinds.
type rounds struct {
	o             options
	least         int
	setup         timer
	plain, traced timer
	n             map[bool]int           // rounds run, by traced
	rt            map[bool]runtimeSample // summed runtime deltas, by traced
	heap          heapPeak
}

func newRounds(o options, least int) *rounds {
	if o.trace {
		least = max(least, 2)
	}
	return &rounds{o: o, least: least, setup: timer{}, plain: timer{}, traced: timer{},
		n: map[bool]int{}, rt: map[bool]runtimeSample{}}
}

// run calls round until enough time is measured. busy returns the
// program time a timer holds.
func (rs *rounds) run(busy func(timer) time.Duration, round func(t timer, traced bool) error) error {
	limit := time.Duration(rs.o.seconds) * time.Second
	for i := 0; i < rs.least || busy(rs.plain)+busy(rs.traced) < limit; i++ {
		traced := rs.o.trace && i%2 == 1
		t := rs.plain
		if traced {
			t = rs.traced
		}
		settle()
		var prof *profiler
		if traced {
			var err error
			if prof, err = startProfile(rs.o.profiles, i); err != nil {
				return err
			}
		}
		rt0 := readRuntime()
		err := round(t, traced)
		rt1 := readRuntime()
		if prof != nil {
			if perr := prof.stop(); err == nil {
				err = perr
			}
		}
		if err != nil {
			return err
		}
		sum := rs.rt[traced]
		sum.gcCPU += rt1.gcCPU - rt0.gcCPU
		sum.allocBytes += rt1.allocBytes - rt0.allocBytes
		sum.allocObjects += rt1.allocObjects - rt0.allocObjects
		rs.rt[traced] = sum
		rs.n[traced]++
	}
	return nil
}

// repeatSetup runs a workload's set-up as the setup constants say,
// timing each under "new".
func (rs *rounds) repeatSetup(fn func() error) error {
	for i := 0; i < setupRounds || (i < setupMaxRounds && rs.setup.total("new") < setupBudget); i++ {
		settle()
		var err error
		rs.setup.time("new", func() { err = fn() })
		if err != nil {
			return err
		}
	}
	return nil
}

// layer returns the timer and round count the per-layer metrics come
// from: the traced rounds of a traced run, else the untraced ones.
func (rs *rounds) layer() (timer, float64) {
	if rs.o.trace {
		return rs.traced, float64(rs.n[true])
	}
	return rs.plain, float64(rs.n[false])
}

// report records set-up time, peak heap and throughput, and per round
// of the layer kind the runtime and trace-overhead figures.
// hours is the simulated warehouse-hours one round advances.
func (rs *rounds) report(r *result, hours int, busy func(timer) time.Duration, newSpan string) {
	secs := make([]float64, len(rs.setup["new"]))
	for i, d := range rs.setup["new"] {
		secs[i] = d.Seconds()
	}
	r.set("setup_s", median(secs), "s")
	if newSpan != "" {
		r.setLayer(newSpan, 1000*median(secs), "ms")
	}
	r.set("peak_heap_mb", rs.heap.mb(), "MB")
	plain := float64(hours*rs.n[false]) / busy(rs.plain).Seconds()
	r.set("sim_hours_per_s", plain, "sim-hours/s")

	traced := rs.o.trace
	n := float64(rs.n[traced])
	rt := rs.rt[traced]
	r.setLayer("runtime.gc_cpu_s", rt.gcCPU/n, "s")
	r.setLayer("runtime.alloc_mb", rt.allocBytes/(1<<20)/n, "MB")
	r.setLayer("runtime.allocs", rt.allocObjects/n, "count")
	if !traced {
		return
	}
	withTrace := float64(hours*rs.n[true]) / busy(rs.traced).Seconds()
	r.setLayer("trace.overhead_pct", 100*(plain-withTrace)/plain, "%")
}

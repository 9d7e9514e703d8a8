package experiments

import (
	"fmt"
	"strings"
	"time"

	"kwo/internal/core"
	"kwo/internal/par"
	"kwo/internal/policy"
)

// Fig7Row is one slider position of Figure 7: warehouse cost (bar) and
// average query latency (line).
type Fig7Row struct {
	Slider     policy.Slider
	Credits    float64 // steady-state daily credits with KWO
	AvgLatency float64 // seconds
	P99Latency float64 // seconds
}

// Fig7Result reproduces Figure 7: the same workload run under all five
// slider positions. The meaningful property is Pareto efficiency —
// moving the slider toward Lowest Cost monotonically trades latency for
// credits; the paper quotes 1.42s average latency at slider 3.
type Fig7Result struct {
	Rows []Fig7Row
}

// String renders the figure as a text table.
func (f Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — cost/performance trade-off across slider positions\n")
	fmt.Fprintf(&b, "%-4s %-18s %-14s %-10s %s\n", "pos", "label", "credits/day", "avg lat(s)", "p99(s)")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-4d %-18s %-14.2f %-10.2f %.2f\n",
			int(r.Slider), r.Slider.String(), r.Credits, r.AvgLatency, r.P99Latency)
	}
	return b.String()
}

// CSV renders the rows for plotting.
func (f Fig7Result) CSV() string {
	var b strings.Builder
	b.WriteString("slider,label,credits_per_day,avg_latency_secs,p99_latency_secs\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%d,%s,%.4f,%.4f,%.4f\n",
			int(r.Slider), r.Slider, r.Credits, r.AvgLatency, r.P99Latency)
	}
	return b.String()
}

// Fig7 runs the oversized-BI workload once per slider position (same
// seed, same arrival stream) and measures steady-state daily credits
// and latency. The five positions are independent simulations and run
// across the worker pool.
func Fig7(seed int64) Fig7Result {
	preDays, kwoDays := 2, 4
	sliders := []policy.Slider{policy.BestPerformance, policy.GoodPerformance,
		policy.Balanced, policy.LowCost, policy.LowestCost}
	rows := par.Map(len(sliders), 0, func(i int) Fig7Row {
		s := sliders[i]
		cfg, gen := oversizedBI(1)
		run := Scenario{
			Name: fmt.Sprintf("fig7-s%d", int(s)), Seed: seed, Orig: cfg, Gen: gen,
			PreDays: preDays, KwoDays: kwoDays,
			Settings: core.WarehouseSettings{Slider: s},
		}.Execute()
		// Steady state: skip the first with-KWO day.
		steadyFrom := run.Attach.Add(24 * time.Hour)
		days := kwoDays - 1
		wh, _ := run.Acct.Warehouse(cfg.Name)
		credits := wh.Meter().CreditsBetween(steadyFrom, run.End, run.Sched.Now()) / float64(days)
		avg, p99, _ := run.WindowStats(steadyFrom, run.End)
		return Fig7Row{Slider: s, Credits: credits, AvgLatency: avg, P99Latency: p99}
	})
	return Fig7Result{Rows: rows}
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/core"
	"kwo/internal/par"
	"kwo/internal/policy"
	"kwo/internal/workload"
)

// OnboardingResult reproduces the paper's onboarding claim (§1, §9):
// "customers reach 50%, 70%, and 95% of their eventual savings after
// only 20, 43, and 83 hours" of using Keebo.
type OnboardingResult struct {
	// SavingsPct[h] is the savings percentage over the trailing 24
	// hours ending h hours after onboarding (h starts at 1).
	SavingsPct []float64
	// EventualPct is the steady-state savings percentage (final day).
	EventualPct float64
	// HoursTo50/70/95 are the measured ramp milestones; the paper's
	// values are 20, 43 and 83 hours.
	HoursTo50 int
	HoursTo70 int
	HoursTo95 int
}

// String renders the ramp summary.
func (o OnboardingResult) String() string {
	var b strings.Builder
	b.WriteString("Onboarding ramp — hours to reach fraction of eventual savings\n")
	fmt.Fprintf(&b, "eventual savings: %.1f%%\n", o.EventualPct)
	fmt.Fprintf(&b, "hours to 50%%: %d  [paper: 20]\n", o.HoursTo50)
	fmt.Fprintf(&b, "hours to 70%%: %d  [paper: 43]\n", o.HoursTo70)
	fmt.Fprintf(&b, "hours to 95%%: %d  [paper: 83]\n", o.HoursTo95)
	return b.String()
}

// CSV renders the hourly ramp for plotting.
func (o OnboardingResult) CSV() string {
	var b strings.Builder
	b.WriteString("hours_since_onboarding,trailing_savings_pct\n")
	for i, p := range o.SavingsPct {
		fmt.Fprintf(&b, "%d,%.3f\n", i+1, p)
	}
	return b.String()
}

// Onboarding measures the savings ramp on a mixed workload. Savings at
// hour h are computed against the pre-KWO spend rate for the matching
// trailing window (same hours of day, one week earlier has the same
// weekday pattern; we use the pre period's average hourly rate by hour
// of day to normalize the diurnal cycle).
func Onboarding(seed int64) OnboardingResult {
	biPool, _, _ := workload.StandardPools()
	cfg := cdw.Config{
		Name: "MAIN_WH", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 2,
		Policy: cdw.ScaleStandard, AutoSuspend: 10 * time.Minute, AutoResume: true,
	}
	// The canonical onboarding story: an overprovisioned dashboard
	// warehouse. (Minutes-long ETL tails mixed into the same warehouse
	// make p99-based pressure oscillate and are better served by their
	// own warehouse — see examples/multi-warehouse.)
	gen := workload.BI{Pool: biPool, PeakQPH: 50, WeekendFactor: 0.3}

	preDays, kwoDays := 7, 5
	opts := ExperimentOptions()
	// Slow the ramp to production-like pace: less offline training per
	// pass, so improvement accrues across retraining cycles.
	opts.PretrainSteps = 60
	run := Scenario{Name: "onboarding", Seed: seed, Orig: cfg, Gen: gen,
		PreDays: preDays, KwoDays: kwoDays,
		Settings: core.WarehouseSettings{Slider: policy.Balanced},
		Opts:     opts}.Execute()

	wh, _ := run.Acct.Warehouse(cfg.Name)
	now := run.Sched.Now()

	// Pre-KWO average spend by hour of day (over the full pre week).
	preByHour := make([]float64, 24)
	for d := 0; d < preDays; d++ {
		for h := 0; h < 24; h++ {
			s := Epoch.Add(time.Duration(d*24+h) * time.Hour)
			preByHour[h] += wh.Meter().CreditsBetween(s, s.Add(time.Hour), now)
		}
	}
	for h := range preByHour {
		preByHour[h] /= float64(preDays)
	}

	totalHours := kwoDays * 24
	res := OnboardingResult{}
	for h := 1; h <= totalHours; h++ {
		// Trailing 24h window ending at attach + h hours. During the
		// first day the window reaches back into the pre-KWO period,
		// whose hours carry ~zero savings — exactly how a customer
		// watching a daily dashboard experiences the ramp.
		var actual, baseline float64
		for i := 0; i < 24; i++ {
			s := run.Attach.Add(time.Duration(h-24+i) * time.Hour)
			actual += wh.Meter().CreditsBetween(s, s.Add(time.Hour), now)
			baseline += preByHour[s.Hour()]
		}
		pct := 0.0
		if baseline > 0 {
			pct = 100 * (1 - actual/baseline)
		}
		if pct < 0 {
			pct = 0
		}
		res.SavingsPct = append(res.SavingsPct, pct)
	}
	// Eventual savings: the final 24h window.
	res.EventualPct = res.SavingsPct[len(res.SavingsPct)-1]
	// A milestone counts only when it is sustained for several hours —
	// a single lucky window is not "reaching" the savings level.
	find := func(frac float64) int {
		target := frac * res.EventualPct
		const sustain = 3
		run := 0
		for i, p := range res.SavingsPct {
			if p >= target {
				run++
				if run >= sustain {
					return i + 2 - sustain // hour the streak began
				}
			} else {
				run = 0
			}
		}
		return totalHours
	}
	res.HoursTo50 = find(0.50)
	res.HoursTo70 = find(0.70)
	res.HoursTo95 = find(0.95)
	return res
}

// SavingsBandRow is one workload archetype's outcome.
type SavingsBandRow struct {
	Archetype  string
	SavingsPct float64
	PreDaily   float64
	KwoDaily   float64
}

// SavingsBandResult reproduces the paper's headline claim that
// customers observe 20%–70% savings depending on their workload.
type SavingsBandResult struct {
	Rows []SavingsBandRow
}

// String renders the band summary.
func (s SavingsBandResult) String() string {
	var b strings.Builder
	b.WriteString("Savings band — reduction by workload archetype [paper: 20%–70%]\n")
	fmt.Fprintf(&b, "%-22s %-12s %-12s %s\n", "archetype", "pre/day", "with/day", "savings")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-22s %-12.2f %-12.2f %.1f%%\n", r.Archetype, r.PreDaily, r.KwoDaily, r.SavingsPct)
	}
	return b.String()
}

// CSV renders the rows.
func (s SavingsBandResult) CSV() string {
	var b strings.Builder
	b.WriteString("archetype,pre_daily,kwo_daily,savings_pct\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.2f\n", r.Archetype, r.PreDaily, r.KwoDaily, r.SavingsPct)
	}
	return b.String()
}

// SavingsBand runs four workload archetypes under Balanced settings.
func SavingsBand(seed int64) SavingsBandResult {
	biPool, etlPool, adhocPool := workload.StandardPools()
	type arch struct {
		name string
		cfg  cdw.Config
		gen  workload.Generator
	}
	archetypes := []arch{
		{
			name: "oversized-bi",
			cfg: cdw.Config{Name: "W", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 1,
				AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen: workload.BI{Pool: biPool, PeakQPH: 60, WeekendFactor: 0.3},
		},
		{
			name: "rightsized-etl",
			cfg: cdw.Config{Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 1,
				AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen: workload.ETL{Pool: etlPool, Period: time.Hour, JobsPerBatch: 6, Jitter: 2 * time.Minute},
		},
		{
			name: "bursty-adhoc",
			cfg: cdw.Config{Name: "W", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 2,
				AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen: workload.AdHoc{Pool: adhocPool, BaseQPH: 14, DayVariance: 0.7,
				BurstsPerDay: 2, BurstQPH: 120, BurstLen: 20 * time.Minute},
		},
		{
			name: "overprovisioned-idle",
			cfg: cdw.Config{Name: "W", Size: cdw.SizeXLarge, MinClusters: 1, MaxClusters: 1,
				AutoSuspend: 30 * time.Minute, AutoResume: true},
			gen: workload.AdHoc{Pool: adhocPool, BaseQPH: 4, DayVariance: 0.4},
		},
	}
	rows := par.Map(len(archetypes), 0, func(i int) SavingsBandRow {
		a := archetypes[i]
		run := Scenario{Name: "band-" + a.name, Seed: seed + int64(i),
			Orig: a.cfg, Gen: a.gen, PreDays: 3, KwoDays: 4}.Execute()
		pre := Mean(run.DailyCredits(0, 3))
		kwo := Mean(run.DailyCredits(4, 3)) // skip ramp day
		row := SavingsBandRow{Archetype: a.name, PreDaily: pre, KwoDaily: kwo}
		if pre > 0 {
			row.SavingsPct = 100 * (1 - kwo/pre)
		}
		return row
	})
	return SavingsBandResult{Rows: rows}
}

package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"kwo/internal/baseline"
	"kwo/internal/cdw"
	"kwo/internal/core"
	"kwo/internal/costmodel"
	"kwo/internal/par"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

// AblationCostModelResult quantifies §5.2's claim that calibrating the
// replay with learned parameters "yields more accurate estimates" than
// replay alone: it compares the counterfactual error of the trained
// latency model against the uncalibrated default when the telemetry
// was recorded at a different size than the counterfactual.
type AblationCostModelResult struct {
	GroundTruth     float64 // actual credits of the counterfactual run
	TrainedEst      float64
	DefaultEst      float64
	TrainedErrPct   float64
	DefaultErrPct   float64
	TrainedIsCloser bool
}

// String renders the comparison.
func (a AblationCostModelResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — replay with vs without learned parameter estimation\n")
	fmt.Fprintf(&b, "ground truth (actual Large run): %.2f credits\n", a.GroundTruth)
	fmt.Fprintf(&b, "estimate with trained latency model:   %.2f (err %.1f%%)\n", a.TrainedEst, a.TrainedErrPct)
	fmt.Fprintf(&b, "estimate with uncalibrated default:    %.2f (err %.1f%%)\n", a.DefaultEst, a.DefaultErrPct)
	return b.String()
}

// AblationCostModel records a workload on a Small warehouse, asks the
// cost model "what would this have cost on Large?", and checks the
// answer against an identical simulation actually run on Large. The
// trained arm has seen executions at both sizes (phase 1 runs Large,
// phase 2 runs Small); the default arm replays with the uncalibrated
// slope.
func AblationCostModel(seed int64) AblationCostModelResult {
	// Heavy, execution-dominated jobs with template-specific scaling
	// exponents: billing is dominated by execution time, so getting
	// the per-template latency scaling right is what decides accuracy.
	pool := workload.NewPool([]workload.Template{
		{Name: "heavy-1", WorkMean: 1200, WorkSigma: 0.15, ScaleExp: 0.5, ColdFactor: 0.2, BytesMean: 1 << 30},
		{Name: "heavy-2", WorkMean: 900, WorkSigma: 0.15, ScaleExp: 1.1, ColdFactor: 0.2, BytesMean: 1 << 30},
		{Name: "heavy-3", WorkMean: 1500, WorkSigma: 0.15, ScaleExp: 0.7, ColdFactor: 0.2, BytesMean: 1 << 30},
	}, 0)
	gen := workload.ETL{Pool: pool, Period: 2 * time.Hour, JobsPerBatch: 3, Jitter: 10 * time.Minute}
	days := 4
	end := Epoch.Add(time.Duration(days) * 24 * time.Hour)
	mid := Epoch.Add(time.Duration(days/2) * 24 * time.Hour)

	cfgLarge := cdw.Config{Name: "W", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Minute, AutoResume: true}

	// Run A (mixed sizes: Large for the first half, Small after, giving
	// the latency model cross-size observations of the same templates)
	// and run B (ground truth: identical workload, Large the whole time)
	// are independent simulations; run both across the worker pool.
	type armOut struct {
		store *telemetry.Store
		truth float64
	}
	arms := par.Map(2, 0, func(i int) armOut {
		if i == 0 {
			schedA := simclock.NewScheduler(seed)
			acctA := cdw.NewAccount(schedA, cdw.DefaultSimParams())
			storeA := telemetry.NewStore()
			acctA.Subscribe(storeA)
			acctA.CreateWarehouse(cfgLarge)
			arrA := gen.Generate(Epoch, end, schedA.Rand("wl"))
			workload.Drive(schedA, acctA, "W", arrA)
			schedA.Schedule(mid, "resize", func() {
				acctA.Alter("W", cdw.Alteration{Size: cdw.SizeP(cdw.SizeSmall)}, "test")
			})
			schedA.RunUntil(end.Add(time.Hour))
			return armOut{store: storeA}
		}
		schedB := simclock.NewScheduler(seed)
		acctB := cdw.NewAccount(schedB, cdw.DefaultSimParams())
		acctB.CreateWarehouse(cfgLarge)
		arrB := gen.Generate(Epoch, end, schedB.Rand("wl"))
		workload.Drive(schedB, acctB, "W", arrB)
		schedB.RunUntil(end.Add(time.Hour))
		whB, _ := acctB.Warehouse("W")
		return armOut{truth: whB.Meter().CreditsBetween(mid, end, schedB.Now())}
	})
	storeA, truth := arms[0].store, arms[1].truth

	// Trained arm: parameters estimated from run A's full history.
	logA := storeA.Log("W")
	trained := costmodel.Train(logA, cfgLarge, Epoch, end, 8)
	trainedEst := trained.Replay(logA, mid, end).Credits

	// Default arm: same replay but with an unfitted latency model.
	def := *trained
	def.Latency = costmodel.FitLatency(nil)
	defaultEst := def.Replay(logA, mid, end).Credits

	res := AblationCostModelResult{
		GroundTruth: truth,
		TrainedEst:  trainedEst,
		DefaultEst:  defaultEst,
	}
	if truth > 0 {
		res.TrainedErrPct = 100 * math.Abs(trainedEst-truth) / truth
		res.DefaultErrPct = 100 * math.Abs(defaultEst-truth) / truth
	}
	res.TrainedIsCloser = res.TrainedErrPct <= res.DefaultErrPct
	return res
}

// AblationBackoffResult compares the engine with and without the
// self-correction loop of §4.3–§4.4 under an injected load spike.
type AblationBackoffResult struct {
	// WithReverts is how many rollbacks the self-correcting arm issued.
	WithReverts int
	// P99With/P99Without are the post-spike p99 latencies (seconds).
	P99With    float64
	P99Without float64
	// CreditsWith/CreditsWithout are post-spike daily credits.
	CreditsWith    float64
	CreditsWithout float64
}

// String renders the comparison.
func (a AblationBackoffResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — self-correction (backoff/revert) on vs off under a load spike\n")
	fmt.Fprintf(&b, "reverts issued (on-arm): %d\n", a.WithReverts)
	fmt.Fprintf(&b, "post-spike p99: with self-correction %.1fs, without %.1fs\n", a.P99With, a.P99Without)
	fmt.Fprintf(&b, "post-spike daily credits: with %.1f, without %.1f\n", a.CreditsWith, a.CreditsWithout)
	return b.String()
}

// AblationBackoff injects a dense spike into a BI workload after KWO
// has settled into a small configuration and compares both arms.
func AblationBackoff(seed int64) AblationBackoffResult {
	build := func(disable bool) *Run {
		biPool, _, _ := workload.StandardPools()
		cfg := cdw.Config{Name: "W", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 1,
			AutoSuspend: 10 * time.Minute, AutoResume: true}
		spikeAt := Epoch.Add(4*24*time.Hour + 14*time.Hour)
		// The spike must be dense enough to overrun the settled (small)
		// configuration's concurrency slots and queue for several decision
		// ticks — that sustained objective pressure is what engages the
		// §4.3/§4.4 self-correction loop deterministically, rather than
		// relying on an unrelated cost-cut landing right before the spike.
		gen := workload.Mixed{Parts: []workload.Generator{
			workload.BI{Pool: biPool, PeakQPH: 60, WeekendFactor: 0.3},
			workload.Spike{Pool: biPool, At: spikeAt, Count: 2500, Over: 30 * time.Minute},
		}, Label: "bi+spike"}
		opts := ExperimentOptions()
		opts.DisableSelfCorrection = disable
		return Scenario{Name: fmt.Sprintf("backoff-%v", disable), Seed: seed,
			Orig: cfg, Gen: gen, PreDays: 2, KwoDays: 4, Opts: opts,
			Settings: core.DefaultSettings()}.Execute()
	}
	runs := par.Map(2, 0, func(i int) *Run { return build(i == 1) })
	on, off := runs[0], runs[1]

	spikeAt := Epoch.Add(4*24*time.Hour + 14*time.Hour)
	post := spikeAt.Add(-10 * time.Minute)
	postEnd := spikeAt.Add(3 * time.Hour)
	_, p99On, _ := on.WindowStats(post, postEnd)
	_, p99Off, _ := off.WindowStats(post, postEnd)
	whOn, _ := on.Acct.Warehouse("W")
	whOff, _ := off.Acct.Warehouse("W")
	return AblationBackoffResult{
		WithReverts:    on.SM.Reverts,
		P99With:        p99On,
		P99Without:     p99Off,
		CreditsWith:    whOn.Meter().CreditsBetween(post, postEnd, on.Sched.Now()),
		CreditsWithout: whOff.Meter().CreditsBetween(post, postEnd, off.Sched.Now()),
	}
}

// ValueOfLearningRow is one controller's outcome on the shared workload.
type ValueOfLearningRow struct {
	Controller string
	DailyCred  float64
	SavingsPct float64
	P99Secs    float64
}

// ValueOfLearningResult compares KWO against the non-learning baselines
// on the oversized-BI workload: savings AND the latency paid for them.
type ValueOfLearningResult struct {
	Rows []ValueOfLearningRow
}

// String renders the comparison.
func (v ValueOfLearningResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — KWO vs non-learning baselines (oversized BI workload)\n")
	fmt.Fprintf(&b, "%-15s %-12s %-10s %s\n", "controller", "credits/day", "savings", "p99(s)")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-15s %-12.2f %-9.1f%% %.2f\n", r.Controller, r.DailyCred, r.SavingsPct, r.P99Secs)
	}
	return b.String()
}

// CSV renders the rows.
func (v ValueOfLearningResult) CSV() string {
	var b strings.Builder
	b.WriteString("controller,credits_per_day,savings_pct,p99_secs\n")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%s,%.4f,%.2f,%.4f\n", r.Controller, r.DailyCred, r.SavingsPct, r.P99Secs)
	}
	return b.String()
}

// ValueOfLearning runs static, rule-of-thumb, reactive and KWO arms on
// the identical workload.
func ValueOfLearning(seed int64) ValueOfLearningResult {
	preDays, ctlDays := 2, 4
	end := Epoch.Add(time.Duration(preDays+ctlDays) * 24 * time.Hour)
	steadyFrom := Epoch.Add(time.Duration(preDays+1) * 24 * time.Hour)
	steadyDays := float64(ctlDays - 1)

	type arm struct {
		name string
		ctl  baseline.Controller // nil for KWO
	}
	arms := []arm{
		{"static", baseline.Static{}},
		{"rule-of-thumb", &baseline.RuleOfThumb{}},
		{"reactive", baseline.NewReactive()},
		{"kwo", nil},
	}
	// The arms share nothing but the seed; run them across the worker
	// pool and derive savings afterwards, once the static arm's spend is
	// known.
	rows := par.Map(len(arms), 0, func(i int) ValueOfLearningRow {
		a := arms[i]
		var daily, p99 float64
		if a.ctl == nil {
			cfg, gen := oversizedBI(1)
			run := Scenario{Name: "vol-kwo", Seed: seed, Orig: cfg, Gen: gen,
				PreDays: preDays, KwoDays: ctlDays}.Execute()
			wh, _ := run.Acct.Warehouse(cfg.Name)
			daily = wh.Meter().CreditsBetween(steadyFrom, run.End, run.Sched.Now()) / steadyDays
			_, p99, _ = run.WindowStats(steadyFrom, run.End)
		} else {
			cfg, gen := oversizedBI(1)
			sched := simclock.NewScheduler(seed)
			acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
			store := telemetry.NewStore()
			acct.Subscribe(store)
			acct.CreateWarehouse(cfg)
			arr := gen.Generate(Epoch, end, sched.Rand("workload:vol"))
			workload.Drive(sched, acct, cfg.Name, arr)
			attach := Epoch.Add(time.Duration(preDays) * 24 * time.Hour)
			sched.RunUntil(attach)
			baseline.Run(sched, acct, cfg.Name, a.ctl, 10*time.Minute)
			sched.RunUntil(end.Add(time.Hour))
			wh, _ := acct.Warehouse(cfg.Name)
			daily = wh.Meter().CreditsBetween(steadyFrom, end, sched.Now()) / steadyDays
			p99 = store.Log(cfg.Name).Stats(steadyFrom, end).P99Latency.Seconds()
		}
		return ValueOfLearningRow{Controller: a.name, DailyCred: daily, P99Secs: p99}
	})
	staticDaily := rows[0].DailyCred // arms[0] is the static baseline
	if staticDaily > 0 {
		for i := range rows {
			rows[i].SavingsPct = 100 * (1 - rows[i].DailyCred/staticDaily)
		}
	}
	return ValueOfLearningResult{Rows: rows}
}

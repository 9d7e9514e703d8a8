package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/core"
	"kwo/internal/costmodel"
	"kwo/internal/ml"
	"kwo/internal/obs"
	"kwo/internal/rl"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

// account is one simulated CDW account wired the way kwo.NewSimulation
// wires it. The benchmark builds it from the layers directly because
// the traced run's shadow calls need the live telemetry log, which the
// kwo facade does not expose.
type account struct {
	sched *simclock.Scheduler
	acct  *cdw.Account
	store *telemetry.Store
	hub   *obs.Hub
}

type hotSpec struct {
	cfg cdw.Config
	gen workload.Generator
}

// hotSpecs are the two warehouses: a multi-cluster BI warehouse that
// auto-suspends, and an always-on ad-hoc warehouse (AUTO_SUSPEND=0).
// Each generator carries its own label because the arrival stream is
// keyed by the generator's name. The rates scale the shapes of the
// repository's busiest experiment (fig5) to hundreds of qph; README.md
// gives the basis.
func hotSpecs() []hotSpec {
	bi, _, adhoc := workload.StandardPools()
	bi2, _, adhoc2 := workload.StandardPools()
	return []hotSpec{
		{
			cfg: cdw.Config{Name: "BI_WH", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 3,
				Policy: cdw.ScaleStandard, AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen: workload.Mixed{Label: "hot-bi", Parts: []workload.Generator{
				workload.BI{Pool: bi, PeakQPH: 300, WeekendFactor: 0.2},
				workload.AdHoc{Pool: adhoc, BaseQPH: 30, DayVariance: 0.3,
					BurstsPerDay: 2, BurstQPH: 300, BurstLen: 15 * time.Minute},
			}},
		},
		{
			cfg: cdw.Config{Name: "ALWAYS_ON_WH", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 1,
				Policy: cdw.ScaleStandard, AutoSuspend: 0, AutoResume: true},
			gen: workload.Mixed{Label: "hot-adhoc", Parts: []workload.Generator{
				workload.AdHoc{Pool: adhoc2, BaseQPH: 80, DayVariance: 0.3,
					BurstsPerDay: 3, BurstQPH: 600, BurstLen: 15 * time.Minute},
				workload.BI{Pool: bi2, PeakQPH: 120, WeekendFactor: 0.2},
			}},
		},
	}
}

// newHotAccount creates the account, its warehouses, and every arrival
// of the horizon (what kwo.Simulation.AddWorkload does).
func newHotAccount(seed int64, horizon time.Duration) (*account, error) {
	sched := simclock.NewScheduler(seed)
	a := &account{sched: sched, acct: cdw.NewAccount(sched, cdw.DefaultSimParams()),
		store: telemetry.NewStore(), hub: obs.NewHub(sched.Now)}
	a.acct.SetObs(a.hub)
	a.store.SetObs(a.hub)
	a.acct.Subscribe(a.store)
	for _, s := range hotSpecs() {
		if _, err := a.acct.CreateWarehouse(s.cfg); err != nil {
			return nil, err
		}
		now := sched.Now()
		arr := s.gen.Generate(now, now.Add(horizon), sched.Rand("workload:"+s.gen.Name()))
		workload.Drive(sched, a.acct, s.cfg.Name, arr)
	}
	return a, nil
}

type hotSize struct{ historyHours, optimizeHours int }

// hotWarehouse is one busy account: a few days of history, then the
// optimizer on both warehouses, audited against a no-optimizer twin.
func hotWarehouse(o options) (*result, error) {
	// Half the 72 h + 144 h horizon the workload was designed from: a
	// traced run of that one takes longer than a run may (README.md).
	sz := hotSize{historyHours: 48, optimizeHours: 72}
	if o.tiny {
		sz = hotSize{historyHours: 6, optimizeHours: 6}
	}
	hours := sz.historyHours + sz.optimizeHours
	horizon := time.Duration(hours) * time.Hour
	specs := hotSpecs()
	r := newResult()
	rs := newRounds(o, 1)
	var a *account
	if err := rs.repeatSetup(func() (err error) {
		a, err = newHotAccount(o.seed, horizon)
		return err
	}); err != nil {
		return nil, err
	}

	busy := func(t timer) time.Duration { return t.total("hour") + t.total("attach") }
	var attach, end time.Time
	var eng *core.Engine
	var trainHours []float64
	sh := &shadowCalls{}
	fresh := true
	err := rs.run(busy, func(t timer, traced bool) error {
		if !fresh {
			var err error
			rs.setup.time("new", func() { a, err = newHotAccount(o.seed, horizon) })
			if err != nil {
				return err
			}
		}
		fresh = false
		start := a.sched.Now()
		opts := core.DefaultOptions()
		opts.Obs = a.hub
		eng = core.NewEngineWithStore(a.acct, a.store, opts)
		regs := []*obs.Registry{a.hub.Registry}
		attach = time.Time{}
		trained := trainings(regs)
		for h := 1; h <= hours; h++ {
			if h == sz.historyHours+1 {
				var err error
				t.time("attach", func() {
					for _, s := range specs {
						if _, err = eng.Attach(s.cfg.Name, core.DefaultSettings()); err != nil {
							return
						}
					}
					eng.Start()
				})
				if err != nil {
					return err
				}
				attach = a.sched.Now()
				trained = trainings(regs)
				if traced {
					sh.run(a, eng, specs, o.seed)
				}
			}
			target := start.Add(time.Duration(h) * time.Hour)
			d := t.time("hour", func() { a.sched.RunUntil(target) })
			rs.heap.sample(traced, h, h == hours)
			r.attempted += len(specs)
			if !attach.IsZero() {
				for _, s := range specs {
					if hl, err := eng.Health(s.cfg.Name); err != nil || hl.Degraded {
						r.failed++
					}
				}
			}
			if n := trainings(regs); n > trained {
				trained = n
				if traced {
					sh.run(a, eng, specs, o.seed)
				} else {
					trainHours = append(trainHours, ms(d))
				}
			}
			if traced {
				sh.stats(a, specs, target)
			}
		}
		end = a.sched.Now()
		eng.Stop()
		return nil
	})
	if err != nil {
		return nil, err
	}
	registryCounts(r, []*obs.Registry{a.hub.Registry}) // one round's counts
	rs.report(r, len(specs)*hours, busy, "")
	epochMetrics(r, rs.plain["hour"])
	r.set("train_epoch_ms_p50", median(trainHours), "ms")
	lt, _ := rs.layer()
	r.setLayer("core.attach_ms", median(msAll(lt["attach"])), "ms")
	sh.report(r)

	// Counterfactual audit: the twin runs the same seed without the
	// optimizer and supplies the ground-truth credits.
	var twin *account
	t := timer{}
	t.time("twin", func() {
		twin, err = newHotAccount(o.seed, horizon)
		if err == nil {
			twin.sched.RunUntil(end)
		}
	})
	if err != nil {
		return nil, err
	}
	r.setLayer("sim.twin_s", t.total("twin").Seconds(), "s")
	var sumTwin, sumActual, sumAbsErr, p99 float64
	for _, s := range specs {
		name := s.cfg.Name
		var actual, without float64
		var estErr error
		t.time("estimate", func() { actual, without, estErr = eng.EstimateSavings(name, attach, end) })
		if estErr != nil {
			return nil, estErr
		}
		twh, err := twin.acct.Warehouse(name)
		if err != nil {
			return nil, err
		}
		truth := twh.Meter().CreditsBetween(attach, end, end)
		sumTwin += truth
		sumActual += actual
		sumAbsErr += math.Abs(without - truth)
		r.notes = append(r.notes, fmt.Sprintf("%s: actual %.2f, estimated without-Keebo %.2f, twin %.2f credits",
			name, actual, without, truth))
		p99 = math.Max(p99, a.store.Log(name).Stats(attach, end).P99Latency.Seconds())

		// Arrivals do not depend on warehouse state, so both accounts
		// must have seen the same queries (compare those submitted well
		// before the end, which have completed in both).
		start, cut := end.Add(-horizon), end.Add(-2*time.Hour)
		n1, h1 := arrivalsDigest(a.store.Log(name), start, cut)
		n2, h2 := arrivalsDigest(twin.store.Log(name), start, cut)
		r.check("twin-arrivals-"+name, n1 > 0 && n1 == n2 && h1 == h2,
			fmt.Sprintf("%d vs %d arrivals", n1, n2))
	}
	r.setLayer("core.estimate_savings_ms", ms(t.total("estimate")), "ms")
	if sumTwin > 0 {
		r.set("billing_error_pct", 100*sumAbsErr/sumTwin, "%")
		r.set("savings_pct", 100*(sumTwin-sumActual)/sumTwin, "%")
	}
	r.set("query_p99_s", p99, "s")
	return r, nil
}

// arrivalsDigest hashes the arrival sequence a warehouse saw.
func arrivalsDigest(log *telemetry.WarehouseLog, from, to time.Time) (int, [32]byte) {
	h := sha256.New()
	recs := log.SubmittedBetween(from, to)
	var buf [32]byte
	for _, q := range recs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(q.SubmitTime.UnixNano()))
		binary.LittleEndian.PutUint64(buf[8:], q.TemplateHash)
		binary.LittleEndian.PutUint64(buf[16:], q.TextHash)
		binary.LittleEndian.PutUint64(buf[24:], q.UserHash)
		h.Write(buf[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return len(recs), sum
}

// shadowCalls times the layers' entry points on the live log at each
// retrain point of a traced run, outside the timed spans and under the
// profile label that CPU attribution skips.
type shadowCalls struct {
	train, offline, offlineN, replay, pretrain, pretrainAllocs, pretrainMB, statsUS []float64
}

func (sh *shadowCalls) run(a *account, eng *core.Engine, specs []hotSpec, seed int64) {
	shadow(func() {
		now := a.sched.Now()
		opts := eng.Options()
		slots := a.acct.Params().MaxConcurrency
		billing := a.acct.Backend().Billing()
		for _, s := range specs {
			name := s.cfg.Name
			log := a.store.Log(name)
			sm, err := eng.Model(name)
			if err != nil || log == nil {
				continue
			}
			from := now.Add(-opts.HistoryWindow)
			var cost *costmodel.Model
			sh.train = append(sh.train, timeMS(func() {
				cost = costmodel.TrainWithBilling(log, sm.Orig(), from, now, slots, billing)
			}))
			var ts []ml.Transition
			sh.offline = append(sh.offline, timeMS(func() {
				ts = core.OfflineTransitions(log, cost, sm.Orig(), from, now, opts.DecideEvery,
					sm.Settings().Slider.Tuning())
			}))
			sh.offlineN = append(sh.offlineN, float64(len(ts)))
			if billFrom, err := eng.BillingPeriodStart(name); err == nil && now.After(billFrom) {
				sh.replay = append(sh.replay, timeMS(func() { cost.Replay(log, billFrom, now) }))
			}
			if len(ts) > 0 {
				agent := rl.NewAgent(rand.New(rand.NewSource(seed)), opts.RL)
				before := readRuntime()
				sh.pretrain = append(sh.pretrain, timeMS(func() { agent.Pretrain(ts, opts.PretrainSteps) }))
				after := readRuntime()
				sh.pretrainAllocs = append(sh.pretrainAllocs, after.allocObjects-before.allocObjects)
				sh.pretrainMB = append(sh.pretrainMB, (after.allocBytes-before.allocBytes)/(1<<20))
			}
		}
	})
}

// stats times WarehouseLog.Stats over each decision window of the hour
// that just ended.
func (sh *shadowCalls) stats(a *account, specs []hotSpec, hourEnd time.Time) {
	shadow(func() {
		window := core.DefaultOptions().DecideEvery
		for _, s := range specs {
			log := a.store.Log(s.cfg.Name)
			if log == nil {
				continue
			}
			for w := hourEnd.Add(-time.Hour); w.Before(hourEnd); w = w.Add(window) {
				from := w
				sh.statsUS = append(sh.statsUS, 1000*timeMS(func() { log.Stats(from, from.Add(window)) }))
			}
		}
	})
}

// report records the medians over the retrain points.
func (sh *shadowCalls) report(r *result) {
	r.setLayer("costmodel.train_ms", median(sh.train), "ms")
	r.setLayer("core.offline_transitions_ms", median(sh.offline), "ms")
	r.setLayer("core.offline_transitions", median(sh.offlineN), "count")
	r.setLayer("costmodel.replay_ms", median(sh.replay), "ms")
	r.setLayer("rl.pretrain_ms", median(sh.pretrain), "ms")
	r.setLayer("rl.pretrain_allocs", median(sh.pretrainAllocs), "count")
	r.setLayer("rl.pretrain_mb", median(sh.pretrainMB), "MB")
	r.setLayer("telemetry.stats_us", median(sh.statsUS), "us")
}

func timeMS(fn func()) float64 {
	start := time.Now()
	fn()
	return ms(time.Since(start))
}

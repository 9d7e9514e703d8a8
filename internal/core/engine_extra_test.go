package core

import (
	"testing"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/costmodel"
	"kwo/internal/obs"
	"kwo/internal/policy"
	"kwo/internal/pricing"
	"kwo/internal/simclock"
	"kwo/internal/workload"
)

// TestSliderRecalibratesWithoutRetrain moves the slider mid-run (the
// §4.3 "no need for retraining" path) and checks the engine actually
// becomes more aggressive afterward.
func TestSliderRecalibratesWithoutRetrain(t *testing.T) {
	cfg, gen := biWorkload()
	sched := simclock.NewScheduler(31)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	engine := NewEngine(acct, testOptions())
	acct.CreateWarehouse(cfg)
	end := t0.Add(9 * 24 * time.Hour)
	arr := gen.Generate(t0, end, sched.Rand("workload"))
	workload.Drive(sched, acct, cfg.Name, arr)

	sched.RunUntil(t0.Add(2 * 24 * time.Hour))
	sm, err := engine.Attach(cfg.Name, WarehouseSettings{Slider: policy.BestPerformance})
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	sched.RunUntil(t0.Add(5 * 24 * time.Hour))
	wh, _ := acct.Warehouse(cfg.Name)
	conservative := wh.Meter().CreditsBetween(t0.Add(4*24*time.Hour), t0.Add(5*24*time.Hour), sched.Now())

	// Customer slides to Lowest Cost; no retraining call happens here.
	sm.SetSlider(policy.LowestCost)
	sched.RunUntil(end)
	aggressive := wh.Meter().CreditsBetween(t0.Add(8*24*time.Hour), end, sched.Now())

	t.Logf("daily credits: BestPerformance %.1f → LowestCost %.1f", conservative, aggressive)
	if aggressive >= conservative*0.8 {
		t.Fatalf("slider move had no effect: %.1f → %.1f", conservative, aggressive)
	}
	if sm.Settings().Slider != policy.LowestCost {
		t.Fatal("slider not stored")
	}
}

// TestMultiWarehouseIndependentModels attaches two very different
// warehouses and verifies each gets its own trained model and actions.
func TestMultiWarehouseIndependentModels(t *testing.T) {
	sched := simclock.NewScheduler(32)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	engine := NewEngine(acct, testOptions())
	biPool, etlPool, _ := workload.StandardPools()

	biCfg := cdw.Config{Name: "BI", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 10 * time.Minute, AutoResume: true}
	etlCfg := cdw.Config{Name: "ETL", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: 10 * time.Minute, AutoResume: true}
	acct.CreateWarehouse(biCfg)
	acct.CreateWarehouse(etlCfg)
	end := t0.Add(5 * 24 * time.Hour)
	workload.Drive(sched, acct, "BI",
		workload.BI{Pool: biPool, PeakQPH: 60, WeekendFactor: 0.3}.Generate(t0, end, sched.Rand("bi")))
	workload.Drive(sched, acct, "ETL",
		workload.ETL{Pool: etlPool, Period: time.Hour, JobsPerBatch: 4}.Generate(t0, end, sched.Rand("etl")))

	sched.RunUntil(t0.Add(24 * time.Hour))
	smBI, err := engine.Attach("BI", DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	smETL, err := engine.Attach("ETL", DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	sched.RunUntil(end)

	if smBI.CostModel() == nil || smETL.CostModel() == nil {
		t.Fatal("cost models not trained for both warehouses")
	}
	if smBI.CostModel() == smETL.CostModel() {
		t.Fatal("warehouses share a cost model (must be per-warehouse, C5)")
	}
	// Each model's baseline reflects its own warehouse.
	if smBI.Orig().Size != cdw.SizeLarge || smETL.Orig().Size != cdw.SizeSmall {
		t.Fatal("per-warehouse baselines wrong")
	}
	// Actions were taken independently; audit rows exist for both.
	byWH := map[string]int{}
	for _, ch := range acct.Changes() {
		if ch.Actor == "kwo" {
			byWH[ch.Warehouse]++
		}
	}
	if byWH["BI"] == 0 {
		t.Fatal("no actions on the oversized BI warehouse")
	}
	if got := engine.Warehouses(); len(got) != 2 {
		t.Fatalf("warehouses = %v", got)
	}
}

// TestBillingPeriodsCoverTimeline verifies consecutive invoices tile
// the with-KWO period without gaps or overlap.
func TestBillingPeriodsCoverTimeline(t *testing.T) {
	cfg, gen := biWorkload()
	sc := runScenario(t, 33, cfg, gen, 2, 3, DefaultSettings(), testOptions())
	invs := sc.engine.Ledger().Invoices()
	if len(invs) < 2 {
		t.Fatalf("invoices = %d", len(invs))
	}
	for i := 1; i < len(invs); i++ {
		if !invs[i].From.Equal(invs[i-1].To) {
			t.Fatalf("invoice %d starts %v, previous ended %v", i, invs[i].From, invs[i-1].To)
		}
	}
}

// TestBillingHistoryIngested verifies the engine pulls billing history
// into the telemetry store and that it matches the meter exactly for
// completed hours — the §6.1 "billing history" training feed.
func TestBillingHistoryIngested(t *testing.T) {
	cfg, gen := biWorkload()
	sc := runScenario(t, 34, cfg, gen, 2, 2, DefaultSettings(), testOptions())
	log := sc.engine.Store().Log(cfg.Name)
	if len(log.Billing) == 0 {
		t.Fatal("no billing rows ingested")
	}
	last := log.LastBilledHour()
	if last.IsZero() {
		t.Fatal("no last billed hour")
	}
	from := sc.attach.Truncate(time.Hour).Add(time.Hour)
	to := last // completed hours only
	wh, _ := sc.acct.Warehouse(cfg.Name)
	want := wh.Meter().CreditsBetween(from, to, sc.sched.Now())
	got := log.BillingBetween(from, to)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("ingested billing %.4f != metered %.4f", got, want)
	}
	// Pre-attach history was back-filled too.
	if log.BillingBetween(t0, sc.attach) <= 0 {
		t.Fatal("pre-attach billing history not back-filled")
	}
}

// invoiceHook adapts a function to obs.Sink; the bus calls it
// synchronously from Emit, so it observes the engine mid-bill.
type invoiceHook func(obs.Event)

func (f invoiceHook) Emit(ev obs.Event) { f(ev) }

// TestInvoicesPriceWithReplay checks every invoice's counterfactual is
// exactly one Model.Replay over the invoice period, computed with the
// model in effect when the invoice was cut — on an auto-suspending
// warehouse and on an always-on (AUTO_SUSPEND=0) one, with a retrain
// inside every billing period so no invoice is priced by the model its
// period started under.
func TestInvoicesPriceWithReplay(t *testing.T) {
	sched := simclock.NewScheduler(35)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	opts := testOptions()
	opts.TrainEvery = 5 * time.Hour // never coincides with a 24h bill
	opts.BillEvery = 24 * time.Hour
	engine := NewEngine(acct, opts)
	biPool, _, adhocPool := workload.StandardPools()
	cfgs := []cdw.Config{
		{Name: "SUSPENDING", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 2,
			AutoSuspend: 10 * time.Minute, AutoResume: true},
		{Name: "ALWAYS_ON", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 1,
			AutoSuspend: 0, AutoResume: true},
	}
	for _, cfg := range cfgs {
		if _, err := acct.CreateWarehouse(cfg); err != nil {
			t.Fatal(err)
		}
	}
	end := t0.Add(4 * 24 * time.Hour)
	workload.Drive(sched, acct, "SUSPENDING",
		workload.BI{Pool: biPool, PeakQPH: 60, WeekendFactor: 0.3}.Generate(t0, end, sched.Rand("bi")))
	workload.Drive(sched, acct, "ALWAYS_ON",
		workload.AdHoc{Pool: adhocPool, BaseQPH: 30, BurstsPerDay: 2, BurstQPH: 200,
			BurstLen: 20 * time.Minute, MonthEndFactor: 1}.Generate(t0, end, sched.Rand("adhoc")))
	sched.RunUntil(t0.Add(24 * time.Hour))

	type check struct {
		inv   pricing.Invoice
		model *costmodel.Model
		want  float64
	}
	var checks []check
	engine.Obs().Bus.AddSink(invoiceHook(func(ev obs.Event) {
		if ev.Kind != obs.EventInvoice {
			return
		}
		invs := engine.Ledger().Invoices()
		inv := invs[len(invs)-1]
		sm, err := engine.Model(inv.Warehouse)
		if err != nil {
			t.Fatal(err)
		}
		cost := sm.CostModel()
		if cost == nil {
			t.Fatalf("invoice for %s cut with no trained cost model", inv.Warehouse)
		}
		want := cost.Replay(engine.Store().Log(inv.Warehouse), inv.From, inv.To).Credits
		checks = append(checks, check{inv, cost, want})
	}))
	prev := map[string]*costmodel.Model{} // model the previous period ended under
	for _, cfg := range cfgs {
		sm, err := engine.Attach(cfg.Name, DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		prev[cfg.Name] = sm.CostModel()
	}
	engine.Start()
	sched.RunUntil(end)

	perWH := map[string]int{}
	for i, c := range checks {
		if c.inv.EstimatedWithoutKeebo != c.want {
			t.Fatalf("invoice %d (%s %v..%v): without = %v, Replay = %v",
				i, c.inv.Warehouse, c.inv.From, c.inv.To, c.inv.EstimatedWithoutKeebo, c.want)
		}
		if c.model == prev[c.inv.Warehouse] {
			t.Fatalf("invoice %d (%s): no retrain inside the billing period", i, c.inv.Warehouse)
		}
		prev[c.inv.Warehouse] = c.model
		perWH[c.inv.Warehouse]++
	}
	for _, cfg := range cfgs {
		if perWH[cfg.Name] < 2 {
			t.Fatalf("%s: %d invoices, want at least 2", cfg.Name, perWH[cfg.Name])
		}
	}
	if n := len(engine.Ledger().Invoices()); n != len(checks) {
		t.Fatalf("hook saw %d invoices, ledger has %d", len(checks), n)
	}
}

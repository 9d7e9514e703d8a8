// Package fleet is the multi-tenant runner: it provisions N fully
// independent tenants — each its own virtual clock, simulated CDW
// account, telemetry store, observability hub, and optimizer engine,
// seeded by a deterministic per-tenant split of one fleet seed — and
// advances them concurrently through a bounded worker pool in lock-step
// epochs. Results are byte-identical for any worker count: the same
// determinism contract par.Map pins for experiment arms, extended to a
// whole SaaS fleet (the paper's Figure 1 deployment shape: one service
// optimizing many customers' warehouses at once).
//
// Cross-fleet aggregation rolls per-tenant spend/savings/latency/health
// into fleet KPIs with the top-K regressed tenants, and the merged obs
// view serves every tenant's metrics on one /metrics endpoint behind a
// tenant label. A tenant whose optimizer enters degraded/safe mode
// keeps running — epochs are a time barrier, not a health barrier, so
// one sick tenant can neither stall nor perturb the rest.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/core"
	"kwo/internal/obs"
	"kwo/internal/par"
)

// Config shapes a fleet run. The zero value is not runnable; New
// applies defaults and validates.
type Config struct {
	// Tenants is how many independent tenants to provision.
	Tenants int
	// Seed is the fleet seed; tenant i runs under TenantSeed(Seed, i).
	Seed int64
	// Workers bounds the epoch worker pool; 0 means one per CPU.
	// Worker count never affects results, only wall-clock time.
	Workers int
	// Epochs is how many lock-step epochs to run.
	Epochs int
	// EpochLen is the simulated length of one epoch (default 1h).
	EpochLen time.Duration
	// AttachEpoch is the epoch boundary at which every tenant's
	// optimizer attaches and starts (history accumulates before it).
	// Default: Epochs/4, at least 1.
	AttachEpoch int
	// FaultRate is the probability (per tenant, drawn from the tenant's
	// own seeded stream) that a tenant lives behind an unreliable
	// control-plane API.
	FaultRate float64
	// FaultTenants force-installs a severe fault plan on the listed
	// tenant indices regardless of FaultRate — the isolation tests use
	// it to push one tenant into degraded mode on demand.
	FaultTenants []int
	// Backends is the pool of CDW backends tenants are provisioned on;
	// each tenant draws one from its own dedicated seeded stream, so a
	// mixed-backend fleet stays a pure function of the fleet seed. Empty
	// means every tenant runs on the default (Snowflake) backend with no
	// draw at all, keeping historical fingerprints byte-identical.
	Backends []string
	// TopK is how many regressed tenants the rollup highlights
	// (default 5).
	TopK int
	// SLO holds the fleet's service-level-objective thresholds; zero
	// fields take the obs.SLOConfig defaults. Objectives are evaluated
	// per tenant over the recorded epoch series.
	SLO obs.SLOConfig
	// SeriesBudget bounds how many points each recorded time series
	// retains; when full, the series halves itself by merging adjacent
	// points (the stride doubles). 0 means 64; must not be negative.
	SeriesBudget int
	// AlertSink, when set, receives every SLO breach/recovery and tenant
	// quarantine alert as it fires on an epoch barrier. Delivery is
	// best-effort (failures are counted, not fatal) and muted during
	// checkpoint replay so a resumed run never re-delivers alerts from
	// before the crash. Alerts themselves are deterministic either way —
	// the tracker log behind /fleet/slo is part of the checkpoint.
	AlertSink obs.AlertSink
	// CheckpointDir, when set, makes the fleet write an epoch-aligned
	// crash-recovery checkpoint (atomically, temp file + rename) every
	// CheckpointEvery epochs and at the final epoch. Resume restores a
	// fresh process to the exact checkpointed state.
	CheckpointDir string
	// CheckpointEvery is the epoch cadence of checkpoint writes
	// (default 8 when CheckpointDir is set).
	CheckpointEvery int
	// EpochDeadline, when positive, bounds one tenant's wall-clock time
	// per epoch: a tenant that exceeds it is quarantined (frozen out of
	// subsequent epochs) instead of stalling the fleet. Requires Wall.
	EpochDeadline time.Duration
	// Wall supplies wall-clock time for the epoch deadline watchdog.
	// Injected rather than time.Now so the fleet package itself stays
	// wall-clock-free (CI enforces this) and tests can fake a stall.
	Wall func() time.Time
	// PanicTenants force-arms a panic probe on the listed tenant
	// indices: a scheduled event that panics mid-way through PanicEpoch,
	// exercising the quarantine boundary on demand.
	PanicTenants []int
	// PanicEpoch is the 1-based epoch in which armed panic probes fire
	// (default AttachEpoch+1).
	PanicEpoch int
	// Opts tunes every tenant's engine; the zero value means
	// core.DefaultOptions(). Options.Obs is ignored — each tenant gets
	// its own hub.
	Opts core.Options
	// Params are the simulated CDW physical constants; the zero value
	// means cdw.DefaultSimParams().
	Params cdw.SimParams
}

// withDefaults returns the config with defaults applied, or an error
// if it is not runnable.
func (c Config) withDefaults() (Config, error) {
	if c.Tenants <= 0 {
		return c, fmt.Errorf("fleet: Tenants must be positive, got %d", c.Tenants)
	}
	if c.Epochs <= 0 {
		return c, fmt.Errorf("fleet: Epochs must be positive, got %d", c.Epochs)
	}
	if c.EpochLen == 0 {
		c.EpochLen = time.Hour
	}
	if c.EpochLen < 0 {
		return c, fmt.Errorf("fleet: EpochLen must be positive, got %v", c.EpochLen)
	}
	if c.AttachEpoch == 0 {
		c.AttachEpoch = c.Epochs / 4
		if c.AttachEpoch < 1 {
			c.AttachEpoch = 1
		}
	}
	if c.AttachEpoch < 0 || c.AttachEpoch >= c.Epochs {
		return c, fmt.Errorf("fleet: AttachEpoch %d outside [1, Epochs) with Epochs=%d",
			c.AttachEpoch, c.Epochs)
	}
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return c, fmt.Errorf("fleet: FaultRate %v outside [0, 1]", c.FaultRate)
	}
	for _, i := range c.FaultTenants {
		if i < 0 || i >= c.Tenants {
			return c, fmt.Errorf("fleet: FaultTenants index %d outside [0, %d)", i, c.Tenants)
		}
	}
	for _, name := range c.Backends {
		if name == "" {
			return c, fmt.Errorf("fleet: Backends must not contain empty names")
		}
		if _, err := cdw.BackendByName(name); err != nil {
			return c, fmt.Errorf("fleet: %w", err)
		}
	}
	if c.TopK <= 0 {
		c.TopK = 5
	}
	if c.SeriesBudget < 0 {
		return c, fmt.Errorf("fleet: SeriesBudget must not be negative, got %d", c.SeriesBudget)
	}
	if c.SeriesBudget == 0 {
		c.SeriesBudget = 64
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("fleet: CheckpointEvery must not be negative, got %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.EpochDeadline < 0 {
		return c, fmt.Errorf("fleet: EpochDeadline must not be negative, got %v", c.EpochDeadline)
	}
	if c.EpochDeadline > 0 && c.Wall == nil {
		return c, fmt.Errorf("fleet: EpochDeadline requires a Wall clock source")
	}
	for _, i := range c.PanicTenants {
		if i < 0 || i >= c.Tenants {
			return c, fmt.Errorf("fleet: PanicTenants index %d outside [0, %d)", i, c.Tenants)
		}
	}
	if c.PanicEpoch == 0 {
		c.PanicEpoch = c.AttachEpoch + 1
		if c.PanicEpoch > c.Epochs {
			c.PanicEpoch = c.Epochs
		}
	}
	if c.PanicEpoch < 1 || c.PanicEpoch > c.Epochs {
		return c, fmt.Errorf("fleet: PanicEpoch %d outside [1, %d]", c.PanicEpoch, c.Epochs)
	}
	c.SLO = c.SLO.WithDefaults()
	if c.Opts.DecideEvery == 0 {
		c.Opts = core.DefaultOptions()
	}
	if c.Params == (cdw.SimParams{}) {
		c.Params = cdw.DefaultSimParams()
	}
	return c, nil
}

// Fleet is a provisioned multi-tenant run. Create with New, drive with
// RunEpoch/Run; the ops endpoints of Handler may be scraped while the
// fleet is advancing.
type Fleet struct {
	cfg       Config
	tenants   []*tenant
	pool      *par.Pool
	plane     *obsPlane
	start     time.Time
	epoch     int
	done      bool
	closeOnce sync.Once
	// replaying is set while Resume re-executes checkpointed epochs: the
	// watchdog is off (replay wall-clock bears no relation to the
	// original run's) and external alert delivery is muted.
	replaying bool
}

// New provisions a fleet: Tenants independent simulation stacks, each
// seeded from TenantSeed(Seed, i), with the optimizer attach armed at
// the attach epoch. Workload arrivals are provisioned lazily, one epoch
// chunk at a time, so a fleet's resident arrival backlog is O(epoch)
// per tenant rather than O(horizon) — the query sequence is identical
// either way (workload.Cursor's contract).
//
// The fleet owns a persistent worker pool sized by Workers; every
// fan-out (provisioning, epochs, finalize, KPI rollup) reuses its
// goroutines. Call Close when done with the fleet to release them — a
// closed fleet still works, falling back to inline execution.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, pool: par.NewPool(cfg.Workers)}
	ids := tenantIDs(cfg.Tenants)
	f.tenants = make([]*tenant, cfg.Tenants)
	// Provisioning fans out through the same bounded pool as epochs:
	// building 64 tenants' engines and first-epoch arrival chunks is
	// the most expensive single step of a short run.
	f.pool.Run(cfg.Tenants, func(i int) {
		f.tenants[i] = newTenant(i, ids[i], TenantSeed(cfg.Seed, i), cfg)
	})
	f.start = f.tenants[0].start
	f.plane = newObsPlane(cfg, f.start)
	return f, nil
}

// Close releases the fleet's worker pool goroutines. Idempotent — a
// second Close is a guaranteed no-op — and the fleet remains usable
// afterwards (fan-outs run inline), so an ops handler holding the fleet
// for /metrics scrapes stays safe.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() { f.pool.Close() })
}

// TenantIDs returns the zero-padded stable tenant labels a fleet of n
// tenants uses (t00 … t63) — exported so tooling (kwo-obscheck
// -tenants) can enumerate the labels a merged exposition must carry.
func TenantIDs(n int) []string { return tenantIDs(n) }

// tenantIDs returns zero-padded stable tenant labels: t00 … t63.
func tenantIDs(n int) []string {
	width := 2
	for lim := 100; lim < n; lim *= 10 {
		width++
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%0*d", width, i)
	}
	return ids
}

// Config returns the fleet's effective (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Epoch returns how many epochs have completed.
func (f *Fleet) Epoch() int { return f.epoch }

// Now returns the fleet's current epoch-boundary virtual time.
func (f *Fleet) Now() time.Time {
	return f.start.Add(time.Duration(f.epoch) * f.cfg.EpochLen)
}

// RunEpoch advances every tenant one epoch through the worker pool and
// then enforces the epoch barrier: all non-quarantined tenants must sit
// exactly on the boundary. A degraded tenant advances like any other —
// simulated time costs the same whether the optimizer is healthy or in
// safe mode — so the barrier cannot stall on tenant health. A tenant
// that panics mid-step (or exceeds the wall-clock epoch deadline) is
// quarantined: frozen at its last consistent state and excluded from
// every subsequent epoch, leaving the rest of the fleet untouched.
func (f *Fleet) RunEpoch() error {
	if f.epoch >= f.cfg.Epochs {
		return fmt.Errorf("fleet: all %d epochs already run", f.cfg.Epochs)
	}
	epochNo := f.epoch + 1
	target := f.start.Add(time.Duration(epochNo) * f.cfg.EpochLen)
	f.pool.Run(len(f.tenants), func(i int) {
		f.stepTenant(f.tenants[i], epochNo, target)
	})
	f.epoch = epochNo
	for _, t := range f.tenants {
		if t.quarantined() {
			continue
		}
		if !t.sched.Now().Equal(target) {
			return fmt.Errorf("fleet: epoch %d barrier violated: tenant %s at %v, want %v",
				f.epoch, t.id, t.sched.Now(), target)
		}
	}
	// Epoch-boundary observation: per-tenant recorder samples plus the
	// fleet-aggregate fold, sequential in tenant-index order so the
	// series are byte-identical for any worker count. SLO burn alerting
	// and quarantine announcements ride the same barrier.
	f.plane.record(target, f.epoch, f.tenants)
	if f.cfg.CheckpointDir != "" && !f.replaying &&
		(f.epoch%f.cfg.CheckpointEvery == 0 || f.epoch == f.cfg.Epochs) {
		if err := f.WriteCheckpoint(); err != nil {
			return fmt.Errorf("fleet: checkpoint at epoch %d: %w", f.epoch, err)
		}
	}
	return nil
}

// stepTenant advances one tenant to the epoch boundary behind the
// quarantine boundary. A panicking tenant is recovered and frozen out;
// with an epoch deadline configured, a tenant whose step took too much
// wall-clock time is frozen out post-hoc (the step itself is never
// interrupted — tenant state stays consistent at the point the panic or
// the boundary left it). Runs on an epoch worker.
func (f *Fleet) stepTenant(t *tenant, epochNo int, target time.Time) {
	if t.quarantined() {
		return
	}
	if rq := t.qResume; rq != nil && rq.epoch == epochNo {
		// The checkpoint being resumed had quarantined this tenant at
		// this epoch: restore the recorded freeze instead of
		// re-executing the failure.
		t.qResume = nil
		t.restoreQuarantine(rq)
		return
	}
	watchdog := f.cfg.EpochDeadline > 0 && !f.replaying
	var wallStart time.Time
	if watchdog {
		wallStart = f.cfg.Wall()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.quarantineNow(epochNo, fmt.Sprintf("panic: %v", r))
			}
		}()
		t.advanceTo(target)
	}()
	if watchdog && !t.quarantined() {
		if elapsed := f.cfg.Wall().Sub(wallStart); elapsed > f.cfg.EpochDeadline {
			t.quarantineNow(epochNo, fmt.Sprintf(
				"epoch deadline exceeded: %v > %v", elapsed, f.cfg.EpochDeadline))
		}
	}
}

// Run drives all remaining epochs, stops every tenant's optimizer, and
// returns the cross-fleet rollup. The report is byte-identical for any
// Workers setting.
func (f *Fleet) Run() (*Report, error) {
	for f.epoch < f.cfg.Epochs {
		if err := f.RunEpoch(); err != nil {
			return nil, err
		}
	}
	if !f.done {
		f.done = true
		f.pool.Run(len(f.tenants), func(i int) {
			// A quarantined tenant is never touched again — its KPI row
			// was frozen at the quarantine epoch.
			if !f.tenants[i].quarantined() {
				f.tenants[i].finalize()
			}
		})
		f.plane.setDone()
	}
	return f.report(), nil
}

// report rolls up per-tenant KPIs into the fleet view. KPI computation
// fans out through the worker pool — savings estimation replays cost
// models, the expensive part — with each row landing at its tenant's
// index, so the rollup input is in index order and the report is
// deterministic regardless of which worker finished when.
func (f *Fleet) report() *Report {
	kpis := make([]TenantKPI, len(f.tenants))
	f.pool.Run(len(f.tenants), func(i int) {
		kpis[i] = f.tenants[i].kpi()
	})
	return rollup(f.cfg, kpis)
}

// Registries returns every tenant's metrics registry behind its tenant
// label, in index order — the input to obs.WriteMergedPrometheus.
func (f *Fleet) Registries() []obs.LabeledRegistry {
	out := make([]obs.LabeledRegistry, len(f.tenants))
	for i, t := range f.tenants {
		out[i] = obs.LabeledRegistry{Label: t.id, Registry: t.hub.Registry}
	}
	return out
}

// ReplayTenant runs one tenant standalone under the exact seed it holds
// (or would hold) inside a fleet with this config, and returns its KPI
// row. Because a tenant's behaviour is a pure function of its seed and
// the epoch schedule, the standalone run is byte-identical to the
// in-fleet run: same event fingerprint, same snapshot fingerprint.
func ReplayTenant(seed int64, cfg Config) (TenantKPI, error) {
	cfg.Tenants = 1
	cfg.FaultTenants = nil
	// Standalone replay has no quarantine boundary; never arm probes.
	cfg.PanicTenants = nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return TenantKPI{}, err
	}
	t := newTenant(0, "t00", seed, cfg)
	for e := 0; e < cfg.Epochs; e++ {
		boundary := t.start.Add(time.Duration(e+1) * cfg.EpochLen)
		t.advanceTo(boundary)
		// Same epoch-boundary sample the in-fleet run takes, so the
		// replayed tenant's series — and the SLO verdicts evaluated over
		// them — match the fleet's bit for bit.
		t.rec.Sample(boundary)
	}
	t.finalize()
	return t.kpi(), nil
}

package fleet

// Crash-safe checkpoint/restore. A fleet checkpoint is an epoch-aligned
// snapshot of everything that evolves during a run: per-tenant series
// rings and recorder baselines, scheduler positions, RNG stream draw
// counts, event-stream hash state, billing watermarks, quarantine
// records, the fleet-aggregate series, and the alert tracker's log and
// dedup state. Checkpoints are written atomically (temp file + rename)
// on the epoch barrier, so a crash at any instant leaves either the
// previous complete checkpoint or the new complete checkpoint — never a
// torn file.
//
// Restore is replay-based. The fleet's event queue holds closures over
// live object graphs, which no snapshot format can serialize; instead
// Resume provisions a fresh fleet from the same config and
// deterministically re-executes epochs 1..k — the determinism contract
// the fleet already holds is what makes this exact — then verifies the
// replayed state against the checkpoint field by field before handing
// the fleet back. Replay costs about as much as the epochs it
// re-executes (about 3.4 s for the benchmark's 4-tenant fleet-prod
// resume from epoch 40 on a 2-vCPU Xeon; retraining dominates it), but
// it cannot drift silently: any divergence
// (version skew, config mismatch, tampered file) fails loudly at resume
// time rather than corrupting the continued run. External alert
// delivery is muted during replay so a resumed run never re-pages for
// alerts delivered before the crash.
//
// CheckpointView is the other reader: it restores only what the ops
// payloads read (series, alert tracker, quarantine records) into a
// fleet skeleton and calls the live /fleet/* builders on it. A
// quarantined tenant's entry keeps its frozen recorder so the offline
// view shows the same series and verdicts as the live one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kwo/internal/obs"
)

// CheckpointVersion is the checkpoint file format version. Loaders
// reject any other value: a format change must not be silently
// misinterpreted as state. Version 2 stores a quarantined tenant's
// recorder, which version 1 dropped.
const CheckpointVersion = 2

// Checkpoint is one epoch-aligned fleet snapshot.
type Checkpoint struct {
	Version int `json:"version"`
	// Epoch is how many epochs had completed when the snapshot was
	// taken; Now is the epoch boundary's virtual time (UnixNano).
	Epoch int   `json:"epoch"`
	Now   int64 `json:"now"`
	// Config pins the behaviour-affecting configuration. Resume refuses
	// a config that does not match: replaying under different knobs
	// would produce a different — wrong — state.
	Config CheckpointConfig `json:"config"`
	// FleetSeries are the fleet-aggregate series rings.
	FleetSeries []obs.SeriesSnapshot `json:"fleet_series"`
	// Alerts is the alert tracker's full deterministic state.
	Alerts AlertState `json:"alerts"`
	// Tenants holds one entry per tenant, in index order.
	Tenants []TenantCheckpoint `json:"tenants"`
}

// CheckpointConfig is the serializable, behaviour-affecting subset of
// Config. Operational knobs (Workers, TopK, CheckpointDir, sinks, the
// wall clock) deliberately do not appear: none of them influence
// simulated state, so a resume may freely change them.
type CheckpointConfig struct {
	Tenants      int           `json:"tenants"`
	Seed         int64         `json:"seed"`
	Epochs       int           `json:"epochs"`
	EpochLen     time.Duration `json:"epoch_len_ns"`
	AttachEpoch  int           `json:"attach_epoch"`
	FaultRate    float64       `json:"fault_rate,omitempty"`
	FaultTenants []int         `json:"fault_tenants,omitempty"`
	Backends     []string      `json:"backends,omitempty"`
	SLO          obs.SLOConfig `json:"slo"`
	SeriesBudget int           `json:"series_budget"`
	PanicTenants []int         `json:"panic_tenants,omitempty"`
	PanicEpoch   int           `json:"panic_epoch,omitempty"`
}

// checkpointConfigOf extracts the pinned subset from a defaulted Config.
func checkpointConfigOf(c Config) CheckpointConfig {
	return CheckpointConfig{
		Tenants:      c.Tenants,
		Seed:         c.Seed,
		Epochs:       c.Epochs,
		EpochLen:     c.EpochLen,
		AttachEpoch:  c.AttachEpoch,
		FaultRate:    c.FaultRate,
		FaultTenants: append([]int(nil), c.FaultTenants...),
		Backends:     append([]string(nil), c.Backends...),
		SLO:          c.SLO,
		SeriesBudget: c.SeriesBudget,
		PanicTenants: append([]int(nil), c.PanicTenants...),
		PanicEpoch:   c.PanicEpoch,
	}
}

// Merge overlays the checkpointed behaviour knobs onto base, keeping
// base's operational knobs (Workers, TopK, CheckpointDir, sinks, Wall).
// This is how a resuming process reconstructs the run config from the
// checkpoint plus its own flags.
func (cc CheckpointConfig) Merge(base Config) Config {
	base.Tenants = cc.Tenants
	base.Seed = cc.Seed
	base.Epochs = cc.Epochs
	base.EpochLen = cc.EpochLen
	base.AttachEpoch = cc.AttachEpoch
	base.FaultRate = cc.FaultRate
	base.FaultTenants = append([]int(nil), cc.FaultTenants...)
	base.Backends = append([]string(nil), cc.Backends...)
	base.SLO = cc.SLO
	base.SeriesBudget = cc.SeriesBudget
	base.PanicTenants = append([]int(nil), cc.PanicTenants...)
	base.PanicEpoch = cc.PanicEpoch
	return base
}

// matches reports the first behaviour-affecting difference between the
// checkpointed config and the resuming one, or nil if they agree.
func (cc CheckpointConfig) matches(other CheckpointConfig) error {
	a, err := json.Marshal(cc)
	if err != nil {
		return err
	}
	b, err := json.Marshal(other)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("fleet: checkpoint config mismatch:\n  checkpoint: %s\n  resume:     %s", a, b)
	}
	return nil
}

// AlertState is the alert tracker's checkpointed state: sequence
// counter, currently-firing (tenant, objective) pairs, and the full
// deterministic log.
type AlertState struct {
	Seq    uint64      `json:"seq"`
	Firing []string    `json:"firing,omitempty"`
	Log    []obs.Alert `json:"log,omitempty"`
}

// TenantCheckpoint is one tenant's snapshot. For an active tenant it
// pins every evolving piece of state the replay must reproduce; for a
// quarantined tenant it records the freeze itself (epoch, reason,
// frozen KPI row) and the recorder its series froze in — the tenant
// never advances again, so nothing else need survive.
type TenantCheckpoint struct {
	Tenant  string `json:"tenant"`
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Profile string `json:"profile"`

	SchedNow      int64  `json:"sched_now,omitempty"`
	SchedSteps    uint64 `json:"sched_steps,omitempty"`
	SchedSeq      uint64 `json:"sched_seq,omitempty"`
	Pending       int    `json:"pending,omitempty"`
	Scheduled     int    `json:"scheduled,omitempty"`
	CursorDone    bool   `json:"cursor_done,omitempty"`
	WorkloadDraws uint64 `json:"workload_draws,omitempty"`

	Events     uint64 `json:"events,omitempty"`
	EventsSum  string `json:"events_sum,omitempty"`
	EventsHash []byte `json:"events_hash,omitempty"`

	BillStart        int64 `json:"bill_start,omitempty"`
	BillingWatermark int64 `json:"billing_watermark,omitempty"`

	Recorder obs.RecorderSnapshot `json:"recorder"`

	AttachErr string `json:"attach_err,omitempty"`

	Quarantined      bool       `json:"quarantined,omitempty"`
	QuarantineEpoch  int        `json:"quarantine_epoch,omitempty"`
	QuarantineReason string     `json:"quarantine_reason,omitempty"`
	FrozenKPI        *TenantKPI `json:"frozen_kpi,omitempty"`
}

// checkpoint extracts the tenant's snapshot entry.
func (t *tenant) checkpoint() (TenantCheckpoint, error) {
	tc := TenantCheckpoint{
		Tenant:   t.id,
		Index:    t.idx,
		Seed:     t.seed,
		Profile:  t.profile,
		Recorder: t.rec.Snapshot(),
	}
	if t.quarantined() {
		tc.Quarantined = true
		tc.QuarantineEpoch = t.qEpoch
		tc.QuarantineReason = t.qReason
		k := *t.frozen
		tc.FrozenKPI = &k
		return tc, nil
	}
	tc.SchedNow = t.sched.Now().UnixNano()
	tc.SchedSteps = t.sched.Steps()
	tc.SchedSeq = t.sched.Seq()
	tc.Pending = t.sched.Pending()
	tc.Scheduled = t.scheduled
	tc.CursorDone = t.cursor == nil
	tc.WorkloadDraws = t.wdraws.n
	tc.Events = t.events.n
	tc.EventsSum = t.events.Sum()
	state, err := t.events.State()
	if err != nil {
		return tc, fmt.Errorf("fleet: tenant %s: %w", t.id, err)
	}
	tc.EventsHash = state
	if t.attachErr != nil {
		tc.AttachErr = t.attachErr.Error()
	}
	if t.eng != nil {
		if bs, err := t.eng.BillingPeriodStart(warehouseName); err == nil && !bs.IsZero() {
			tc.BillStart = bs.UnixNano()
		}
		if wm, err := t.eng.BillingWatermark(warehouseName); err == nil && !wm.IsZero() {
			tc.BillingWatermark = wm.UnixNano()
		}
	}
	return tc, nil
}

// Checkpoint takes a snapshot of the fleet at its current epoch
// boundary. Callers drive it between epochs (RunEpoch calls it on the
// barrier); the plane lock orders it against concurrent ops scrapes.
func (f *Fleet) Checkpoint() (*Checkpoint, error) {
	f.plane.mu.Lock()
	defer f.plane.mu.Unlock()
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Epoch:   f.epoch,
		Now:     f.Now().UnixNano(),
		Config:  checkpointConfigOf(f.cfg),
	}
	cp.FleetSeries = make([]obs.SeriesSnapshot, len(f.plane.fleet))
	for i, s := range f.plane.fleet {
		cp.FleetSeries[i] = s.Snapshot()
	}
	cp.Alerts = AlertState{
		Seq:    f.plane.tracker.Seq(),
		Firing: f.plane.tracker.FiringKeys(),
		Log:    f.plane.tracker.Log(),
	}
	cp.Tenants = make([]TenantCheckpoint, len(f.tenants))
	for i, t := range f.tenants {
		tc, err := t.checkpoint()
		if err != nil {
			return nil, err
		}
		cp.Tenants[i] = tc
	}
	return cp, nil
}

// checkpointFileName is the epoch-stamped on-disk name; zero-padding
// keeps lexicographic order equal to epoch order.
func checkpointFileName(epoch int) string {
	return fmt.Sprintf("fleet-epoch-%06d.ckpt.json", epoch)
}

// WriteCheckpoint snapshots the fleet and writes it atomically into
// Config.CheckpointDir: the bytes land in a temp file first and the
// final name appears only via rename, so readers (and crashes) never
// see a partial checkpoint.
func (f *Fleet) WriteCheckpoint() error {
	if f.cfg.CheckpointDir == "" {
		return fmt.Errorf("fleet: WriteCheckpoint: no CheckpointDir configured")
	}
	cp, err := f.Checkpoint()
	if err != nil {
		return err
	}
	return writeCheckpointFile(filepath.Join(f.cfg.CheckpointDir, checkpointFileName(cp.Epoch)), cp)
}

func writeCheckpointFile(path string, cp *Checkpoint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := tf.Write(append(data, '\n')); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and validates one checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return &cp, nil
}

// validate checks the structural invariants a loaded checkpoint must
// hold before anything trusts it.
func (cp *Checkpoint) validate() error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("unsupported version %d (this build reads %d)", cp.Version, CheckpointVersion)
	}
	if cp.Epoch < 1 {
		return fmt.Errorf("invalid epoch %d", cp.Epoch)
	}
	if cp.Config.Tenants <= 0 || len(cp.Tenants) != cp.Config.Tenants {
		return fmt.Errorf("has %d tenant entries, config says %d", len(cp.Tenants), cp.Config.Tenants)
	}
	if cp.Epoch > cp.Config.Epochs {
		return fmt.Errorf("epoch %d beyond configured horizon %d", cp.Epoch, cp.Config.Epochs)
	}
	for i, tc := range cp.Tenants {
		if tc.Index != i {
			return fmt.Errorf("tenant entry %d has index %d", i, tc.Index)
		}
		if tc.Quarantined && tc.FrozenKPI == nil {
			return fmt.Errorf("tenant %s quarantined without a frozen KPI", tc.Tenant)
		}
		if tc.Quarantined && (tc.QuarantineEpoch < 1 || tc.QuarantineEpoch > cp.Epoch) {
			return fmt.Errorf("tenant %s quarantine epoch %d outside [1, %d]",
				tc.Tenant, tc.QuarantineEpoch, cp.Epoch)
		}
	}
	return nil
}

// LatestCheckpoint returns the newest loadable checkpoint in dir. Files
// that fail to load (torn leftovers, foreign files, version skew) are
// skipped with their errors collected, so one bad file cannot mask an
// older good checkpoint behind it.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "fleet-epoch-*.ckpt.json"))
	if err != nil {
		return nil, "", err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var errs []string
	for _, name := range names {
		cp, err := LoadCheckpoint(name)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		return cp, name, nil
	}
	if len(errs) > 0 {
		return nil, "", fmt.Errorf("fleet: no loadable checkpoint in %s: %s", dir, strings.Join(errs, "; "))
	}
	return nil, "", fmt.Errorf("fleet: no checkpoint found in %s", dir)
}

// Resume reconstructs a running fleet from a checkpoint: provision a
// fresh fleet under the merged config, deterministically replay epochs
// 1..cp.Epoch (external alert delivery muted, watchdog off), and verify
// the replayed state against the checkpoint field by field. The
// returned fleet stands exactly where the interrupted one stood —
// continuing it produces a byte-identical report fingerprint to a run
// that was never interrupted.
func Resume(cp *Checkpoint, base Config) (*Fleet, error) {
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	cfg, err := cp.Config.Merge(base).withDefaults()
	if err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	if err := cp.Config.matches(checkpointConfigOf(cfg)); err != nil {
		return nil, err
	}
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i, tc := range cp.Tenants {
		if tc.Quarantined {
			k := *tc.FrozenKPI
			f.tenants[i].qResume = &resumeQuarantine{
				epoch:  tc.QuarantineEpoch,
				reason: tc.QuarantineReason,
				kpi:    &k,
			}
		}
	}
	f.replaying = true
	f.plane.mute = true
	for f.epoch < cp.Epoch {
		if err := f.RunEpoch(); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: resume replay: %w", err)
		}
	}
	f.replaying = false
	f.plane.mute = false
	if err := f.verifyCheckpoint(cp); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// verifyCheckpoint re-snapshots the replayed fleet and compares it to
// the checkpoint. Replay determinism makes equality the expected case;
// any difference means the checkpoint does not belong to this config or
// build, and the resume must not continue.
func (f *Fleet) verifyCheckpoint(cp *Checkpoint) error {
	got, err := f.Checkpoint()
	if err != nil {
		return fmt.Errorf("fleet: resume verify: %w", err)
	}
	if got.Epoch != cp.Epoch || got.Now != cp.Now {
		return fmt.Errorf("fleet: resume verify: replay stands at epoch %d/now %d, checkpoint has %d/%d",
			got.Epoch, got.Now, cp.Epoch, cp.Now)
	}
	if err := jsonEq("fleet series", got.FleetSeries, cp.FleetSeries); err != nil {
		return err
	}
	if err := jsonEq("alert state", got.Alerts, cp.Alerts); err != nil {
		return err
	}
	for i := range cp.Tenants {
		want, have := cp.Tenants[i], got.Tenants[i]
		if want.Quarantined {
			// The freeze was restored, not re-executed; epoch, reason
			// and the frozen series are the record to check, the KPI
			// row came from the checkpoint itself.
			if !have.Quarantined || have.QuarantineEpoch != want.QuarantineEpoch ||
				have.QuarantineReason != want.QuarantineReason {
				return fmt.Errorf("fleet: resume verify: tenant %s quarantine state diverged", want.Tenant)
			}
			if err := jsonEq("tenant "+want.Tenant+" recorder", have.Recorder, want.Recorder); err != nil {
				return err
			}
			continue
		}
		if have.Quarantined {
			return fmt.Errorf("fleet: resume verify: tenant %s quarantined during replay: %s",
				want.Tenant, have.QuarantineReason)
		}
		if err := jsonEq("tenant "+want.Tenant, have, want); err != nil {
			return err
		}
	}
	return nil
}

// jsonEq compares two values by their deterministic JSON encodings and
// reports the first divergence with both renderings.
func jsonEq(what string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("fleet: resume verify: %s diverged\n  replayed:   %s\n  checkpoint: %s", what, g, w)
	}
	return nil
}

// CheckpointView rebuilds the fleet ops payloads (live KPIs, time
// series, SLO status) from a checkpoint alone — no replay, no
// simulation. It restores a read-only fleet skeleton (fleet series,
// alert tracker, each tenant's identity, recorder and quarantine
// record) and asks it for the payloads the live /fleet/* endpoints
// serve, so the offline and live views are one computation. The portal
// uses it to inspect a crashed run offline.
func CheckpointView(cp *Checkpoint) (LiveKPIs, FleetTimeSeries, SLOStatus, error) {
	f, err := viewFleet(cp)
	if err != nil {
		return LiveKPIs{}, FleetTimeSeries{}, SLOStatus{}, fmt.Errorf("fleet: checkpoint view: %w", err)
	}
	return f.KPIs(), f.TimeSeries(), f.SLOStatus(), nil
}

// viewFleet restores the fleet state the ops payloads read. The
// skeleton has no simulation stack and no worker pool; only the plane
// and the payload builders may touch it.
func viewFleet(cp *Checkpoint) (*Fleet, error) {
	if err := cp.validate(); err != nil {
		return nil, err
	}
	cfg, err := cp.Config.Merge(Config{}).withDefaults()
	if err != nil {
		return nil, err
	}
	p := newObsPlane(cfg, time.Unix(0, cp.Now).UTC())
	p.epoch, p.done = cp.Epoch, cp.Epoch == cfg.Epochs
	p.fleet = p.fleet[:0]
	for _, snap := range cp.FleetSeries {
		s, err := obs.RestoreSeries(snap)
		if err != nil {
			return nil, err
		}
		p.fleet = append(p.fleet, s)
	}
	p.tracker = obs.RestoreAlertTracker(cp.Alerts.Seq, cp.Alerts.Firing, cp.Alerts.Log)
	f := &Fleet{cfg: cfg, plane: p, tenants: make([]*tenant, len(cp.Tenants))}
	// The view never reads the gauges a recorder mirrors its series
	// onto, so one scratch hub backs every restored recorder.
	hub := obs.NewHub(nil)
	for i, tc := range cp.Tenants {
		t := &tenant{idx: tc.Index, id: tc.Tenant, seed: tc.Seed, profile: tc.Profile,
			rec: obs.NewRecorder(hub, p.specs, cfg.SeriesBudget)}
		if err := t.rec.Restore(tc.Recorder); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", tc.Tenant, err)
		}
		if tc.Quarantined {
			t.qEpoch, t.qReason = tc.QuarantineEpoch, tc.QuarantineReason
			t.quar.Store(true)
		}
		f.tenants[i] = t
	}
	return f, nil
}

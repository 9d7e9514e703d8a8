package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kwo/internal/core"
	"kwo/internal/fleet"
	"kwo/internal/obs"
)

// mixedBackends is the backend pool of both fleet workloads.
var mixedBackends = []string{"snowflake", "bigquery", "redshift"}

// checkpointCadence is the fleet's default checkpoint cadence in
// epochs (fleet.Config.CheckpointEvery's default).
const checkpointCadence = 8

type fleetProdSize struct {
	tenants, epochs, attach, resumeAt int
}

// fleetProd is the production fleet: trained optimizers on every
// tenant, faults, mixed backends, cadence checkpoints, then a resume
// from a late checkpoint that must finish byte-identical.
func fleetProd(o options) (*result, error) {
	sz := fleetProdSize{tenants: 4, epochs: 48, attach: 12, resumeAt: 40}
	if o.tiny {
		sz = fleetProdSize{tenants: 2, epochs: 10, attach: 2, resumeAt: 8}
	}
	dir, err := os.MkdirTemp(o.state, "fleet-prod-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := fleet.Config{
		Tenants:     sz.tenants,
		Seed:        o.seed,
		Workers:     fleetWorkers(),
		Epochs:      sz.epochs,
		AttachEpoch: sz.attach,
		FaultRate:   0.2,
		Backends:    mixedBackends,
		Opts:        core.DefaultOptions(),
		// The benchmark writes the cadence checkpoints itself, so their
		// cost is a span of its own; the fleet writes only the final one.
		CheckpointDir:   dir,
		CheckpointEvery: sz.epochs,
	}
	r := newResult()
	rs := newRounds(o, 2) // the repeat-fingerprint check needs two rounds
	f, err := setupFleet(cfg, rs)
	if err != nil {
		return nil, err
	}
	defer func() { f.Close() }()

	busy := func(t timer) time.Duration {
		return t.total("epoch") + t.total("checkpoint") + t.total("finalize")
	}
	var rep *fleet.Report
	var trainEpochs []float64
	fresh := true
	err = rs.run(busy, func(t timer, traced bool) error {
		if !fresh {
			f.Close()
			var err error
			rs.setup.time("new", func() { f, err = fleet.New(cfg) })
			if err != nil {
				return err
			}
		}
		fresh = false
		regs := registriesOf(f)
		trained := trainings(regs)
		for e := 1; e <= cfg.Epochs; e++ {
			var err error
			d := t.time("epoch", func() { err = f.RunEpoch() })
			if err != nil {
				return fmt.Errorf("epoch %d barrier: %w", e, err)
			}
			if e%checkpointCadence == 0 && e < cfg.Epochs {
				t.time("checkpoint", func() { err = f.WriteCheckpoint() })
				if err != nil {
					return fmt.Errorf("checkpoint at epoch %d: %w", e, err)
				}
			}
			rs.heap.sample(traced, e, e == cfg.Epochs)
			if n := trainings(regs); n > trained {
				if !traced {
					trainEpochs = append(trainEpochs, ms(d))
				}
				trained = n
			}
		}
		var roundRep *fleet.Report
		var err error
		t.time("finalize", func() { roundRep, err = f.Run() })
		if err != nil {
			return err
		}
		r.attempted += cfg.Tenants * cfg.Epochs
		r.failed += quarantinedEpochs(roundRep, cfg.Epochs)
		// The same seed must give the same report in every round.
		if rep != nil && roundRep.Fingerprint() != rep.Fingerprint() {
			r.check("repeat-fingerprint", false, roundRep.Fingerprint()+" vs "+rep.Fingerprint())
		}
		rep = roundRep
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.check("repeat-fingerprint", true, fmt.Sprintf("%d rounds, report %s", rs.n[false]+rs.n[true], rep.Fingerprint()))
	registryCounts(r, registriesOf(f)) // one round's counts
	rs.report(r, cfg.Tenants*cfg.Epochs, busy, "fleet.new_ms")
	epochMetrics(r, rs.plain["epoch"])
	r.set("train_epoch_ms_p50", median(trainEpochs), "ms")
	lt, n := rs.layer()
	r.setLayer("fleet.run_epoch_ms", ms(lt.total("epoch"))/n, "ms")
	r.setLayer("fleet.finalize_ms", ms(lt.total("finalize"))/n, "ms")
	r.setLayer("fleet.checkpoint_ms", ms(lt.total("checkpoint"))/n, "ms")

	// Resume from the last cadence checkpoint before the end, finish the
	// run again, and require the uninterrupted run's fingerprint.
	cps, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	sort.Strings(cps) // names are zero-padded epoch numbers
	if len(cps) < 2 {
		return nil, fmt.Errorf("want cadence checkpoints in %s, found %d files", dir, len(cps))
	}
	cpPath := cps[len(cps)-2]
	if fi, err := os.Stat(cpPath); err == nil {
		r.setLayer("fleet.checkpoint_bytes", float64(fi.Size()), "bytes")
	}
	base := cfg
	base.CheckpointDir = ""
	t := timer{}
	var cp *fleet.Checkpoint
	var resumed *fleet.Fleet
	var loadErr, resumeErr error
	t.time("load", func() { cp, loadErr = fleet.LoadCheckpoint(cpPath) })
	if loadErr == nil {
		t.time("replay", func() { resumed, resumeErr = fleet.Resume(cp, base) })
	}
	r.attempted++
	switch {
	case loadErr != nil:
		r.failed++
		r.check("resume-verified", false, loadErr.Error())
	case resumeErr != nil:
		r.failed++
		r.check("resume-verified", false, resumeErr.Error())
	case resumed.Epoch() != sz.resumeAt:
		resumed.Close()
		r.failed++
		r.check("resume-verified", false, fmt.Sprintf("resumed at epoch %d, want %d", resumed.Epoch(), sz.resumeAt))
	default:
		r.check("resume-verified", true, fmt.Sprintf("epoch %d", cp.Epoch))
		r.set("resume_s", (t.total("load") + t.total("replay")).Seconds(), "s")
		r.setLayer("fleet.resume_load_ms", ms(t.total("load")), "ms")
		r.setLayer("fleet.resume_replay_ms", ms(t.total("replay")), "ms")
		rep2, err := resumed.Run()
		resumed.Close()
		left := cfg.Epochs - sz.resumeAt
		r.attempted += cfg.Tenants * left
		if err != nil {
			r.failed += cfg.Tenants * left
			r.check("resume-fingerprint", false, err.Error())
		} else {
			r.failed += quarantinedEpochs(rep2, left)
			r.check("resume-fingerprint", rep2.Fingerprint() == rep.Fingerprint(),
				"resumed "+rep2.Fingerprint()+" vs uninterrupted "+rep.Fingerprint())
		}
	}

	// One tenant replayed standalone must reproduce its in-fleet run.
	idx := int(uint64(o.seed) % uint64(cfg.Tenants))
	solo := cfg
	solo.CheckpointDir = ""
	k, err := fleet.ReplayTenant(fleet.TenantSeed(o.seed, idx), solo)
	want := rep.PerTenant[idx]
	r.check("replay-tenant", err == nil && k.EventsFingerprint == want.EventsFingerprint &&
		k.SnapshotFingerprint == want.SnapshotFingerprint,
		fmt.Sprintf("tenant %s events %.12s/%.12s snapshot %.12s/%.12s err=%v", want.Tenant,
			k.EventsFingerprint, want.EventsFingerprint, k.SnapshotFingerprint, want.SnapshotFingerprint, err))
	return r, nil
}

func fleetWorkers() int { return min(2, runtime.NumCPU()) }

// setupFleet provisions the fleet repeatedly (rounds.repeatSetup) and
// returns the last one.
func setupFleet(cfg fleet.Config, rs *rounds) (*fleet.Fleet, error) {
	var f *fleet.Fleet
	err := rs.repeatSetup(func() error {
		if f != nil {
			f.Close()
		}
		var err error
		f, err = fleet.New(cfg)
		return err
	})
	return f, err
}

func registriesOf(f *fleet.Fleet) []*obs.Registry {
	var regs []*obs.Registry
	for _, lr := range f.Registries() {
		regs = append(regs, lr.Registry)
	}
	return regs
}

// quarantinedEpochs counts the tenant-epochs lost to quarantine over
// the last `epochs` epochs of the report's run.
func quarantinedEpochs(rep *fleet.Report, epochs int) int {
	n := 0
	for _, k := range rep.PerTenant {
		if k.Quarantined {
			lost := rep.Epochs - k.QuarantineEpoch + 1
			n += min(lost, epochs)
		}
	}
	return n
}

// epochMetrics reports the per-step host-time distribution.
func epochMetrics(r *result, steps []time.Duration) {
	xs := msAll(steps)
	r.set("epoch_ms_p50", median(xs), "ms")
	v, pct, n := tail(xs)
	r.set("epoch_ms_tail", v, "ms")
	r.notes = append(r.notes, fmt.Sprintf("epoch_ms_tail is p%.1f of %d steps", pct, n))
}

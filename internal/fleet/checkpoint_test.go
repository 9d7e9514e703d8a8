package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resumeBase returns the operational config a resuming process would
// supply: everything behaviour-affecting comes from the checkpoint, but
// Opts (not serialized — it may hold live hooks) must match the
// original run by construction, exactly as the CLI always builds it
// from defaults.
func resumeBase(cfg Config) Config {
	return Config{Workers: 3, Opts: cfg.Opts}
}

// TestCheckpointResumeFingerprintIdentical is the tentpole property: a
// run interrupted at ANY checkpoint and resumed in a fresh fleet must
// finish with a report fingerprint byte-identical to the uninterrupted
// run — crash recovery may not perturb a single simulated byte.
func TestCheckpointResumeFingerprintIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 5
	base := runFleet(t, cfg)
	want := base.Fingerprint()

	// Epochs 5 and 10 on the cadence, 12 because the final epoch always
	// checkpoints.
	names, err := filepath.Glob(filepath.Join(dir, "fleet-epoch-*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("checkpoint files = %v, want epochs 5, 10, 12", names)
	}
	for _, name := range names {
		cp, err := LoadCheckpoint(name)
		if err != nil {
			t.Fatalf("LoadCheckpoint(%s): %v", name, err)
		}
		f, err := Resume(cp, resumeBase(cfg))
		if err != nil {
			t.Fatalf("Resume(%s): %v", name, err)
		}
		rep, err := f.Run()
		f.Close()
		if err != nil {
			t.Fatalf("Run after resume from %s: %v", name, err)
		}
		if got := rep.Fingerprint(); got != want {
			t.Errorf("resume from %s: fingerprint %s != uninterrupted %s", name, got, want)
		}
	}
}

// TestResumeDoesNotRewriteReplayedCheckpoints: replayed epochs must not
// write checkpoint files (or deliver alerts) again — only epochs the
// resumed fleet genuinely advances through do.
func TestResumeDoesNotRewriteReplayedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(3, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)

	cp, err := LoadCheckpoint(filepath.Join(dir, checkpointFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	base := resumeBase(cfg)
	base.CheckpointDir = fresh
	base.CheckpointEvery = 4
	f, err := Resume(cp, base)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(fresh, "fleet-epoch-*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(names))
	for i, n := range names {
		got[i] = filepath.Base(n)
	}
	want := []string{checkpointFileName(8), checkpointFileName(12)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("resumed run wrote %v, want only post-resume epochs %v", got, want)
	}
}

// TestCheckpointViewMatchesLive: the offline portal view rebuilt from a
// checkpoint alone must be JSON-identical to the live fleet's ops
// payloads at the same epoch — including a quarantined tenant, whose
// frozen series and verdicts the view must show as the live plane does.
func TestCheckpointViewMatchesLive(t *testing.T) {
	clean := testConfig(3, 2)
	clean.Epochs = 6
	quarantined := testConfig(4, 2)
	quarantined.Epochs = 8
	quarantined.PanicTenants = []int{2}
	quarantined.PanicEpoch = 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", clean},
		{"quarantined", quarantined},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Run(); err != nil {
				t.Fatal(err)
			}
			cp, err := f.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			kpis, ts, slo, err := CheckpointView(cp)
			if err != nil {
				t.Fatalf("CheckpointView: %v", err)
			}
			for _, pair := range []struct {
				what       string
				view, live any
			}{
				{"kpis", kpis, f.KPIs()},
				{"timeseries", ts, f.TimeSeries()},
				{"slo", slo, f.SLOStatus()},
			} {
				v, err := json.Marshal(pair.view)
				if err != nil {
					t.Fatal(err)
				}
				l, err := json.Marshal(pair.live)
				if err != nil {
					t.Fatal(err)
				}
				if string(v) != string(l) {
					t.Errorf("%s: checkpoint view diverges from live payload:\nview: %s\nlive: %s", pair.what, v, l)
				}
			}
		})
	}
}

// TestLoadCheckpointRejectsMalformed: version skew, structural damage,
// and plain garbage must all fail loudly at load time.
func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 4
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)
	path := filepath.Join(dir, checkpointFileName(4))
	good, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	rewrite := func(mutate func(*Checkpoint)) string {
		cp := *good
		cp.Tenants = append([]TenantCheckpoint(nil), good.Tenants...)
		mutate(&cp)
		out := filepath.Join(t.TempDir(), "mutated.ckpt.json")
		if err := writeCheckpointFile(out, &cp); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name   string
		path   string
		errHas string
	}{
		{"version skew", rewrite(func(cp *Checkpoint) { cp.Version = 99 }), "unsupported version"},
		{"version 1", rewrite(func(cp *Checkpoint) { cp.Version = 1 }), "unsupported version"},
		{"epoch beyond horizon", rewrite(func(cp *Checkpoint) { cp.Epoch = cp.Config.Epochs + 1 }), "beyond configured horizon"},
		{"tenant count mismatch", rewrite(func(cp *Checkpoint) { cp.Tenants = cp.Tenants[:1] }), "tenant entries"},
		{"index disorder", rewrite(func(cp *Checkpoint) { cp.Tenants[0].Index = 1 }), "has index"},
		{"quarantine without KPI", rewrite(func(cp *Checkpoint) {
			cp.Tenants[0].Quarantined = true
			cp.Tenants[0].QuarantineEpoch = 2
		}), "without a frozen KPI"},
	}
	garbage := filepath.Join(t.TempDir(), "garbage.ckpt.json")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name   string
		path   string
		errHas string
	}{"garbage", garbage, "invalid character"})

	for _, tc := range cases {
		if _, err := LoadCheckpoint(tc.path); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.errHas)
		}
	}
}

// TestResumeRejectsTamper: a checkpoint whose recorded state does not
// match what the deterministic replay reproduces must be refused —
// silent divergence would corrupt everything after the resume. That
// covers a quarantined tenant's frozen recorder as well as an active
// tenant's state.
func TestResumeRejectsTamper(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 4
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	cfg.PanicTenants = []int{1}
	cfg.PanicEpoch = 2
	runFleet(t, cfg)
	path := filepath.Join(dir, checkpointFileName(4))

	for _, tc := range []struct {
		name   string
		tamper func(*Checkpoint)
	}{
		{"active scheduler state", func(cp *Checkpoint) { cp.Tenants[0].SchedSteps++ }},
		{"quarantined recorder", func(cp *Checkpoint) { cp.Tenants[1].Recorder.Series[0].Points[0].V++ }},
	} {
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !cp.Tenants[1].Quarantined {
			t.Fatalf("checkpoint does not record tenant 1's quarantine: %+v", cp.Tenants[1])
		}
		tc.tamper(cp)
		if _, err := Resume(cp, resumeBase(cfg)); err == nil || !strings.Contains(err.Error(), "resume verify") {
			t.Fatalf("tampered %s: err = %v, want resume verify failure", tc.name, err)
		}
	}

	// A checkpointed config that defaulting would alter is a config from
	// a different build — the merge guard must catch it before replay.
	cp2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp2.Config.SeriesBudget = 0
	if _, err := Resume(cp2, resumeBase(cfg)); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("defaulting-altered config: err = %v, want config mismatch", err)
	}
}

// TestLatestCheckpoint: newest loadable wins; corrupt newer files are
// skipped rather than masking an older good checkpoint; torn .tmp
// leftovers are invisible; an empty dir is a clean error.
func TestLatestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 8
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)

	cp, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if cp.Epoch != 8 || filepath.Base(path) != checkpointFileName(8) {
		t.Fatalf("latest = epoch %d (%s), want 8", cp.Epoch, path)
	}

	// Corrupt the newest; the older good file must be found behind it.
	if err := os.WriteFile(path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray temp file must never be considered.
	tmp := filepath.Join(dir, checkpointFileName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, path, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint with corrupt head: %v", err)
	}
	if cp.Epoch != 4 || filepath.Base(path) != checkpointFileName(4) {
		t.Fatalf("latest behind corrupt head = epoch %d (%s), want 4", cp.Epoch, path)
	}

	if _, _, err := LatestCheckpoint(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no checkpoint found") {
		t.Fatalf("empty dir: err = %v, want no checkpoint found", err)
	}
}

func TestWriteCheckpointRequiresDir(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Epochs = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteCheckpoint(); err == nil || !strings.Contains(err.Error(), "no CheckpointDir") {
		t.Fatalf("err = %v, want no CheckpointDir configured", err)
	}
}

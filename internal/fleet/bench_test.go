package fleet

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"kwo/internal/obs"
)

// benchConfig shapes a fleet for machinery benchmarks: one-minute
// epochs keep per-epoch simulation work small, so the numbers weight
// the fan-out/provisioning overhead rather than optimizer math.
func benchConfig(tenants, epochs int) Config {
	return Config{
		Tenants: tenants,
		Seed:    7,
		// Pinned (not per-CPU): on a single-core runner workers=0 would
		// collapse the fan-out to inline execution and the benchmarks
		// would not measure the pool at all.
		Workers:     8,
		Epochs:      epochs,
		EpochLen:    time.Minute,
		AttachEpoch: 1,
		Opts:        lightOpts(),
	}
}

// benchFleetEpoch measures steady-state RunEpoch cost at a given fleet
// width, after the fleet is provisioned and the optimizers attached.
func benchFleetEpoch(b *testing.B, tenants int) {
	f, err := New(benchConfig(tenants, b.N+2))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ { // warm through attach before timing
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetEpoch16(b *testing.B)   { benchFleetEpoch(b, 16) }
func BenchmarkFleetEpoch256(b *testing.B)  { benchFleetEpoch(b, 256) }
func BenchmarkFleetEpoch1024(b *testing.B) { benchFleetEpoch(b, 1024) }

// BenchmarkFleetProvision measures New — tenant provisioning — for a
// 64-tenant fleet over a month of hourly epochs. Lazy provisioning
// defers the arrival stream, so this is engine/profile setup.
func BenchmarkFleetProvision(b *testing.B) {
	cfg := Config{
		Tenants:  64,
		Seed:     7,
		Epochs:   720, // a month of hours
		EpochLen: time.Hour,
		Opts:     lightOpts(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// scrapeRegs provisions a 1024-tenant fleet once (shared across the
// scrape benchmarks — provisioning dwarfs the scrape under test) and
// runs two epochs so every registry carries live series.
var scrapeOnce sync.Once
var scrapeRegs []obs.LabeledRegistry

func scrapeFleetRegs(b *testing.B) []obs.LabeledRegistry {
	scrapeOnce.Do(func() {
		f, err := New(benchConfig(1024, 2))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Run(); err != nil {
			b.Fatal(err)
		}
		scrapeRegs = f.Registries()
	})
	return scrapeRegs
}

// BenchmarkMergedScrape1024 measures one merged /metrics render across
// 1024 live tenant registries through the streaming writer. allocs/op
// is the headline: streaming stays O(families), not O(total series).
func BenchmarkMergedScrape1024(b *testing.B) {
	regs := scrapeFleetRegs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteMergedPrometheus(io.Discard, TenantLabel, regs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLazyProvisioningMemoryFlat guards lazy provisioning: New must
// NOT materialize the horizon's arrivals. Heap growth from New over a
// month of hourly epochs must stay within 1.25× the growth over one
// day; materializing the horizon holds a month of arrival structs per
// tenant and measured about 5× the one-day growth.
func TestLazyProvisioningMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews heap accounting")
	}
	heapAfterNew := func(epochs int) uint64 {
		cfg := Config{
			Tenants:  16,
			Seed:     7,
			Epochs:   epochs,
			EpochLen: time.Hour,
			Opts:     lightOpts(),
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		f.Close()
		runtime.KeepAlive(f)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	day := heapAfterNew(24)
	month := heapAfterNew(720)
	if month*4 > day*5 {
		t.Errorf("New over 720 epochs holds %d bytes, over 24 epochs %d — want ≤ 1.25× (arrival horizon not deferred?)",
			month, day)
	}
	t.Logf("heap after New: 24 epochs=%d 720 epochs=%d", day, month)
}

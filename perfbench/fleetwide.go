package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kwo/internal/fleet"
	"kwo/internal/obs"
)

type fleetWideSize struct {
	tenants, epochs int
	// scrapeEvery is the open-loop scrape interval. 100 ms is the
	// highest rate tried at which the scraper keeps up on two vCPUs; at
	// 50 ms its backlog grows through the round (README.md).
	scrapeEvery time.Duration
}

// scrapePaths are the ops endpoints the scraper cycles through.
var scrapePaths = []struct{ key, path string }{
	{"metrics", "/metrics"},
	{"kpis", "/fleet/kpis"},
	{"timeseries", "/fleet/timeseries"},
	{"slo", "/fleet/slo"},
}

// fleetWide is a wide fleet in its history phase: no optimizer ever
// attaches, so the work is provisioning, simulation, telemetry and the
// obs plane, with an open-loop scraper reading the ops endpoints while
// epochs advance.
func fleetWide(o options) (*result, error) {
	sz := fleetWideSize{tenants: 256, epochs: 168, scrapeEvery: 100 * time.Millisecond}
	if o.tiny {
		sz = fleetWideSize{tenants: 8, epochs: 12, scrapeEvery: 5 * time.Millisecond}
	}
	cfg := fleet.Config{
		Tenants: sz.tenants,
		Seed:    o.seed,
		Workers: fleetWorkers(),
		// The attach boundary is inclusive: the optimizer would attach
		// when epoch AttachEpoch is driven, so it sits past the last
		// driven epoch (and Epochs past it, as validation requires).
		Epochs:      sz.epochs + 2,
		AttachEpoch: sz.epochs + 1,
		FaultRate:   0.2,
		Backends:    mixedBackends,
	}
	r := newResult()
	rs := newRounds(o, 1)
	f, err := setupFleet(cfg, rs)
	if err != nil {
		return nil, err
	}
	defer func() { f.Close() }()
	ids := fleet.TenantIDs(sz.tenants)
	scrapers := map[bool]*scraper{
		false: newScraper(ids, sz.scrapeEvery, o.state),
		true:  newScraper(ids, sz.scrapeEvery, o.state),
	}

	busy := func(t timer) time.Duration { return t.total("epoch") }
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
		sc := scrapers[traced]
		sc.start(fleet.Handler(f))
		var err error
		for e := 1; e <= sz.epochs && err == nil; e++ {
			t.time("epoch", func() { err = f.RunEpoch() })
			rs.heap.sample(traced, e, e == sz.epochs)
		}
		sc.stop()
		if err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		r.attempted += cfg.Tenants * sz.epochs
		for _, k := range f.KPIs().PerTenant {
			if k.Quarantined {
				r.failed += sz.epochs - k.QuarantineEpoch + 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	registryCounts(r, registriesOf(f)) // one round's counts
	n := r.layer["core.trainings"].Value
	r.check("no-attach", n == 0, fmt.Sprintf("%v trainings in the history phase", n))
	rs.report(r, cfg.Tenants*sz.epochs, busy, "fleet.new_ms")
	epochMetrics(r, rs.plain["epoch"])
	lt, rounds := rs.layer()
	r.setLayer("fleet.run_epoch_ms", ms(lt.total("epoch"))/rounds, "ms")

	var attempted, failed int
	var firstErr string
	for _, sc := range scrapers {
		attempted += sc.attempted
		failed += sc.failed
		firstErr += sc.firstErr
	}
	r.attempted += attempted
	r.failed += failed
	r.check("scrapes", attempted > 0 && failed == 0,
		fmt.Sprintf("%d scrapes, %d failed %s", attempted, failed, firstErr))
	all := scrapers[false].latency["all"]
	r.set("scrape_ms_p50", median(all), "ms")
	v, pct, cnt := tail(all)
	r.set("scrape_ms_tail", v, "ms")
	r.notes = append(r.notes, fmt.Sprintf("scrape_ms_tail is p%.1f of %d scrapes", pct, cnt))
	scrapers[o.trace].report(r)
	return r, nil
}

// scraper is an open-loop client: scrape k is due at start+k*every
// whatever happened to earlier ones, and its latency runs from the due
// time to the end of the response body, so a stall also delays the
// scrapes queued behind it. Its loop only requests, stores the body and
// records; /metrics bodies go to files in dir, out of the heap that
// peak_heap_mb samples, and are checked after stop, outside the timed
// phase. It runs under the "scrape" profile
// label, so the traced run can tell the server's read work apart.
type scraper struct {
	h       http.Handler
	tenants []string
	every   time.Duration
	dir     string
	done    chan struct{}
	wg      sync.WaitGroup

	// written by the scraper goroutine between start and stop
	latency   map[string][]float64
	bytes     map[string][]float64
	late      []float64
	bodies    []string // /metrics bodies awaiting the check
	attempted int
	failed    int
	firstErr  string
}

func newScraper(tenants []string, every time.Duration, dir string) *scraper {
	return &scraper{tenants: tenants, every: every, dir: dir,
		latency: map[string][]float64{}, bytes: map[string][]float64{}}
}

// start launches the scraping goroutine against h; stop ends it, waits,
// and checks the stored /metrics bodies.
func (s *scraper) start(h http.Handler) {
	s.h = h
	s.done = make(chan struct{})
	s.wg.Add(1)
	go labelled("scrape", s.run)
}

func (s *scraper) stop() {
	close(s.done)
	s.wg.Wait()
	s.h = nil // do not keep the round's fleet alive
	for _, path := range s.bodies {
		if err := s.checkMetrics(path); err != nil {
			s.fail(fmt.Errorf("/metrics: %w", err))
		}
		_ = os.Remove(path) // a scratch file; the next round overwrites it anyway
	}
	s.bodies = nil
}

func (s *scraper) fail(err error) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

func (s *scraper) run() {
	defer s.wg.Done()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * s.every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-s.done:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-s.done:
				return
			default:
			}
		}
		ep := scrapePaths[k%len(scrapePaths)]
		s.late = append(s.late, ms(time.Since(due)))
		rec := httptest.NewRecorder()
		s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep.path, nil))
		lat := ms(time.Since(due))
		s.attempted++
		if rec.Code != http.StatusOK {
			s.fail(fmt.Errorf("%s: status %d", ep.path, rec.Code))
			continue
		}
		if ep.key == "metrics" {
			path := filepath.Join(s.dir, fmt.Sprintf("metrics-%d.prom", len(s.bodies)))
			if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
				s.fail(err)
				continue
			}
			s.bodies = append(s.bodies, path)
		}
		s.latency[ep.key] = append(s.latency[ep.key], lat)
		s.latency["all"] = append(s.latency["all"], lat)
		s.bytes[ep.key] = append(s.bytes[ep.key], float64(rec.Body.Len()))
	}
}

// checkMetrics requires a stored /metrics body to parse with
// obs.ParseText and to carry every tenant label.
func (s *scraper) checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := obs.ParseText(f)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, sets := range p.Labels {
		for _, set := range sets {
			if id, ok := set[fleet.TenantLabel]; ok {
				seen[id] = true
			}
		}
	}
	for _, id := range s.tenants {
		if !seen[id] {
			return fmt.Errorf("no series for tenant %s", id)
		}
	}
	return nil
}

// report records the per-endpoint figures as per-layer metrics.
func (s *scraper) report(r *result) {
	for _, ep := range scrapePaths {
		r.setLayer("obs.scrape_ms."+ep.key, median(s.latency[ep.key]), "ms")
		r.setLayer("obs.scrape_bytes."+ep.key, median(s.bytes[ep.key]), "bytes")
	}
	r.setLayer("obs.scrape_late_ms", median(s.late), "ms")
}

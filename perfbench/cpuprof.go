package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// A traced round records a CPU profile of its timed phase into the
// profile directory. run.py splits the samples by layer afterwards
// (go tool pprof -traces), skipping samples labelled shadow.

// benchLabel is the profile label key of the benchmark's own goroutine
// work: value "shadow" marks work attribution skips (shadow calls),
// value "scrape" marks the scraper, whose samples are the server's
// read work.
const benchLabel = "perfbench"

// shadow runs fn under the label attribution skips.
func shadow(fn func()) { labelled("shadow", fn) }

func labelled(value string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(benchLabel, value), func(context.Context) { fn() })
}

type profiler struct{ f *os.File }

// startProfile starts a CPU profile written to dir/cpu-<round>.pb.gz.
func startProfile(dir string, round int) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pb.gz", round)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &profiler{f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

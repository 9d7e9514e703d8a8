// kwo-bench regenerates every table and figure of the paper's
// evaluation section (§7) plus the headline onboarding/savings claims
// and the design ablations, printing paper-reported numbers alongside
// the measured ones.
//
// Independent experiments (and the independent scenarios inside each)
// run across a bounded worker pool; results are printed in canonical
// order and are byte-identical to a sequential run.
//
// Usage:
//
//	kwo-bench                  # run everything
//	kwo-bench -fig 4a          # one experiment: 4a 4b 5 6 7 onboarding band fleet ablations
//	kwo-bench -seed 7 -csv     # different seed; machine-readable rows
//	GOMAXPROCS=1 kwo-bench     # sequential run, same output
//	kwo-bench -bench BENCH_dev.json -rev dev
//	                           # record wall-times + figure metrics as a
//	                           # benchio JSON artifact
//	kwo-bench -bench out.json -gobench bench.txt
//	                           # merge `go test -bench` output into the artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kwo/internal/benchio"
	"kwo/internal/experiments"
	"kwo/internal/fleet"
	"kwo/internal/par"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: 4a, 4b, 5, 6, 7, onboarding, band, fleet, ablations, all")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV rows instead of tables")
	benchOut := flag.String("bench", "", "write a benchio JSON report (wall-times + figure metrics) to this file")
	goBench := flag.String("gobench", "", "merge records parsed from a 'go test -bench' output file into the -bench report")
	rev := flag.String("rev", "dev", "revision label recorded in the -bench report")
	flag.Parse()

	// Each experiment renders its output to a string and reports the
	// headline metrics for the bench artifact; printing happens after
	// the fan-out, in canonical order.
	type result struct {
		out     string
		metrics map[string]float64
	}
	render := func(table fmt.Stringer, csvOut func() string) string {
		if *csv && csvOut != nil {
			return csvOut()
		}
		return table.String() + "\n"
	}
	type experiment struct {
		name string
		run  func() result
	}
	all := []experiment{
		{"4a", func() result {
			r := experiments.Fig4a(*seed)
			return result{render(r, r.CSV), map[string]float64{
				"reduction_pct": r.ReductionPct, "kwo_daily_credits": r.KwoAvgDaily}}
		}},
		{"4b", func() result {
			r := experiments.Fig4b(*seed)
			return result{render(r, r.CSV), map[string]float64{
				"reduction_pct": r.ReductionPct, "kwo_daily_credits": r.KwoAvgDaily}}
		}},
		{"5", func() result {
			r := experiments.Fig5(*seed)
			return result{render(r, r.CSV), nil}
		}},
		{"6", func() result {
			r := experiments.Fig6(*seed)
			return result{render(r, r.CSV), nil}
		}},
		{"7", func() result {
			r := experiments.Fig7(*seed)
			m := map[string]float64{}
			for _, row := range r.Rows {
				if row.Slider.String() == "Balanced" {
					m["balanced_credits_per_day"] = row.Credits
					m["balanced_avg_latency_s"] = row.AvgLatency
				}
			}
			return result{render(r, r.CSV), m}
		}},
		{"onboarding", func() result {
			r := experiments.Onboarding(*seed)
			return result{render(r, r.CSV), map[string]float64{
				"hours_to_50":  float64(r.HoursTo50),
				"hours_to_70":  float64(r.HoursTo70),
				"hours_to_95":  float64(r.HoursTo95),
				"eventual_pct": r.EventualPct}}
		}},
		{"band", func() result {
			r := experiments.SavingsBand(*seed)
			m := map[string]float64{}
			for _, row := range r.Rows {
				m["savings_pct_"+row.Archetype] = row.SavingsPct
			}
			return result{render(r, r.CSV), m}
		}},
		{"fleet", func() result {
			// The fleet hot path: 64 tenants × 24 hourly epochs through
			// the persistent worker pool, lazily provisioned. The wall
			// time recorded for this row is the committed BENCH artifact's
			// fleet throughput number.
			f, err := fleet.New(fleet.Config{
				Tenants:   64,
				Seed:      *seed,
				Epochs:    24,
				FaultRate: 0.2,
			})
			if err != nil {
				return result{out: fmt.Sprintf("fleet: %v\n", err)}
			}
			defer f.Close()
			rep, err := f.Run()
			if err != nil {
				return result{out: fmt.Sprintf("fleet: %v\n", err)}
			}
			csvOut := func() string {
				var b strings.Builder
				rep.WriteCSV(&b)
				return b.String()
			}
			return result{render(rep, csvOut), map[string]float64{
				"fleet_tenants":          float64(rep.Tenants),
				"fleet_epochs":           float64(rep.Epochs),
				"fleet_savings_pct":      rep.SavingsPercent,
				"fleet_degraded_tenants": float64(rep.DegradedTenants),
			}}
		}},
		{"ablations", func() result {
			var b strings.Builder
			cm := experiments.AblationCostModel(*seed)
			fmt.Fprintln(&b, cm)
			fmt.Fprintln(&b, experiments.AblationBackoff(*seed))
			r := experiments.ValueOfLearning(*seed)
			b.WriteString(render(r, r.CSV))
			return result{b.String(), map[string]float64{
				"costmodel_trained_err_pct": cm.TrainedErrPct,
				"costmodel_default_err_pct": cm.DefaultErrPct}}
		}},
	}

	want := strings.ToLower(*fig)
	var selected []experiment
	for _, e := range all {
		if want == "all" || want == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use 4a, 4b, 5, 6, 7, onboarding, band, fleet, ablations, all\n", *fig)
		os.Exit(2)
	}

	type timed struct {
		result
		wall time.Duration
	}
	results := par.Map(len(selected), 0, func(i int) timed {
		start := time.Now()
		r := selected[i].run()
		return timed{r, time.Since(start)}
	})

	report := benchio.NewReport(*rev)
	for i, e := range selected {
		fmt.Print(results[i].out)
		if !*csv {
			fmt.Printf("[%s completed in %v]\n\n", e.name, results[i].wall.Round(time.Millisecond))
		}
		report.Add(benchio.Record{
			Name:       "Experiment/" + e.name,
			Iterations: 1,
			NsPerOp:    float64(results[i].wall.Nanoseconds()),
			Metrics:    results[i].metrics,
		})
	}

	if *benchOut == "" {
		return
	}
	if *goBench != "" {
		f, err := os.Open(*goBench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kwo-bench: %v\n", err)
			os.Exit(1)
		}
		recs, err := benchio.ParseGoBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kwo-bench: %v\n", err)
			os.Exit(1)
		}
		for _, rec := range recs {
			report.Add(rec)
		}
	}
	out, err := os.Create(*benchOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kwo-bench: %v\n", err)
		os.Exit(1)
	}
	if _, err := report.WriteTo(out); err != nil {
		fmt.Fprintf(os.Stderr, "kwo-bench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "kwo-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *benchOut, len(report.Records))
}

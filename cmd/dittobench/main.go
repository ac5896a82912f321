// Command dittobench regenerates the tables and figures of the Ditto
// paper's evaluation (SOSP 2023) on the simulated disaggregated-memory
// substrate.
//
// Usage:
//
//	dittobench -list
//	dittobench -fig 14                 # one figure, quick scale
//	dittobench -fig 14 -scale full     # paper-relative scale
//	dittobench -table 3
//	dittobench -all [-scale full]
//
// Output is plain text: the same rows/series each figure plots. See
// docs/BENCHMARKS.md for the experiment catalog, the figure each one
// reproduces, and the schema of every -json artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ditto/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure number to regenerate (e.g. 14)")
		table    = flag.String("table", "", "table number to regenerate (e.g. 3)")
		scenario = flag.String("scenario", "", "named scenario to run by ID (e.g. chaos, churn, hotspot; see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs")
		scaleFl  = flag.String("scale", "quick", "experiment scale: quick | full")
		jsonFl   = flag.String("json", "", "also write a machine-readable summary to this path (scenarios that support it)")
		seedFl   = flag.Int64("seed", 0, "override every scenario's built-in simulation seed (0 = per-scenario defaults); pins bench-smoke artifacts across CI reruns")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile of the run to this path (pprof format)")
		memProf  = flag.String("memprofile", "", "write a host heap-allocation profile (alloc_space/alloc_objects) to this path at exit")
	)
	flag.Parse()
	bench.JSONPath = *jsonFl
	bench.Seed = *seedFl

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The heap profile is written on the way out so it covers the whole
		// run; alloc_space/alloc_objects are cumulative, so a GC beforehand
		// only trims the inuse view, not the allocation totals the alloc
		// gate inspects.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	scale, err := bench.ParseScale(*scaleFl)
	if err != nil {
		fatal(err)
	}

	switch {
	case *list:
		for _, id := range bench.IDs() {
			fmt.Printf("%-16s %s\n", id, bench.Describe(id))
		}
	case *all:
		if err := bench.RunAll(os.Stdout, scale); err != nil {
			fatal(err)
		}
	case *fig != "":
		if err := bench.Run(*fig, os.Stdout, scale); err != nil {
			fatal(err)
		}
	case *scenario != "":
		if err := bench.Run(*scenario, os.Stdout, scale); err != nil {
			fatal(err)
		}
	case *table != "":
		if err := bench.Run("table"+*table, os.Stdout, scale); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dittobench:", err)
	os.Exit(1)
}

// Command perfbench is the repository's benchmark. It drives the public
// ditto API with closed-loop virtual clients on one of three workloads
// (read-hot, churn-evict, elastic), checks every value it reads back, and
// prints its metrics, the last line being one JSON object.
//
//	perfbench --workload read-hot --seed 1 --seconds 20 --trace 0
//
// A run repeats the workload (set-up included) until --seconds have
// passed: twice at least with --seed, whose virtual-time metrics must
// agree exactly, and once with a held-out seed, reported beside it. Host
// costs are medians over the untraced repetitions. With --trace 1 every
// other --seed repetition is traced, the layer probes run first, and the
// per-layer metrics are reported; the trace of the first traced
// repetition is written as Chrome trace-event JSON under --out. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// heldOut derives the held-out seed reported beside --seed.
func heldOut(seed int64) int64 { return seed + 7919 }

// minReps covers --seed twice (the determinism check) and the held-out
// seed once.
const minReps = 3

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]metricValueOut `json:"metrics"`
}

type metricValueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "read-hot, churn-evict or elastic")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "how long to keep repeating the workload")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for traces")
	flag.Parse()
	sh := shapeNamed(*workload)
	if sh == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		return 2
	}
	// Virtual clients never run in parallel, and handing control between
	// their goroutines is cheapest on a single P.
	runtime.GOMAXPROCS(1)

	start := time.Now()
	var tr *tracer
	probes := map[string]float64{}
	if *traced == 1 {
		tr = newTracer()
		t := time.Now()
		probes["sim.host_ns_per_switch"] = probeSim()
		tr.probe("probe:sim", time.Since(t).Nanoseconds())
		t = time.Now()
		probes["rdma.host_ns_per_verb"] = probeRdma()
		tr.probe("probe:rdma", time.Since(t).Nanoseconds())
		t = time.Now()
		probes["bench.host_ns_per_req"], probes["bench.allocs_per_req"] = probeBench(sh, *seed)
		tr.probe("probe:bench", time.Since(t).Nanoseconds())
	}

	rec := &recorder{}
	held := heldOut(*seed)
	var ref, heldRef map[string]float64
	var refN map[string]int
	var refRep *rep
	var plain, tracedHost []host
	var setups []float64
	correct := true
	traceFile := ""
	for i := 0; ; i++ {
		s, withTrace := *seed, *traced == 1 && i%2 == 1
		if i == 2 {
			s = held
		}
		t := time.Now()
		var rtr *tracer
		if withTrace {
			rtr = tr
		}
		r, h := runRep(sh, s, rec, rtr)
		m, n := r.virtual()
		setups = append(setups, h.setupS)
		switch {
		case s == held:
			heldRef = m
		case ref == nil:
			ref, refN, refRep = m, n, r
		default:
			if diff := compare(ref, m); diff != "" {
				fmt.Printf("DETERMINISM FAILURE: repetition %d (seed %d, traced %v) differs: %s\n", i, s, withTrace, diff)
				correct = false
			}
		}
		if withTrace {
			tracedHost = append(tracedHost, h)
		} else {
			plain = append(plain, h)
		}
		if withTrace && traceFile == "" {
			traceFile = filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", sh.name, s))
			if err := tr.write(traceFile, r.snaps); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
				return 1
			}
		}
		fmt.Printf("# repetition %d: seed %d traced=%v setup %.3fs, %d requests, %.0f host ns/op, %.2fs\n",
			i, s, withTrace, h.setupS, r.allRequests, h.nsPerOp, time.Since(t).Seconds())
		if i+1 >= minReps && time.Since(start)+time.Since(t) > time.Duration(*seconds)*time.Second {
			break
		}
	}
	if ref["error_rate"] != 0 || heldRef["error_rate"] != 0 {
		fmt.Println("VALUE CHECK FAILURE: failed operations on", sh.name)
		correct = false
	}

	med := func(hs []host, f func(host) float64) float64 {
		xs := make([]float64, len(hs))
		for i, h := range hs {
			xs[i] = f(h)
		}
		return median(xs)
	}
	values := map[string]float64{}
	for k, v := range ref {
		values[k] = v
	}
	values["host_ns_per_op"] = med(plain, func(h host) float64 { return h.nsPerOp })
	values["allocs_per_op"] = med(plain, func(h host) float64 { return h.allocPerOp })
	values["host_heap_mb"] = med(plain, func(h host) float64 { return h.heapMB })
	values["setup_s"] = median(setups)
	for k, v := range probes {
		values[k] = v
	}
	if *traced == 1 {
		traceNs := med(tracedHost, func(h host) float64 { return h.nsPerOp })
		values["trace.overhead"] = traceNs / values["host_ns_per_op"]
		values["core.host_self_ns_per_op"] = values["host_ns_per_op"] -
			refRep.verbsPerRequest()*values["rdma.host_ns_per_verb"] - values["bench.host_ns_per_req"]
	}
	hostN := map[string]int{"host_ns_per_op": len(plain), "allocs_per_op": len(plain),
		"host_heap_mb": len(plain), "setup_s": len(setups)}

	report(sh.name, *seed, held, values, heldRef, refN, hostN, *traced == 1)
	if traceFile != "" {
		fmt.Println("# trace:", traceFile)
	}

	list := e2e
	if *traced == 1 {
		list = layers
	}
	res := result{Correct: correct, Attempted: refRep.attempted, Failed: refRep.failed,
		Metrics: map[string]metricValueOut{}}
	for _, m := range list {
		res.Metrics[m.name] = metricValueOut{Value: values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// compare returns a description of the first metric that differs, or "".
func compare(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v != %v", k, a[k], b[k])
		}
	}
	return ""
}

// report prints every metric of the run by name with unit and sample
// count, and the held-out seed's virtual-time figures beside --seed's.
func report(name string, seed, held int64, v, heldV map[string]float64, n, hostN map[string]int, traced bool) {
	fmt.Printf("# workload %s: seed %d, held-out seed %d\n", name, seed, held)
	show := func(m metric) {
		count := ""
		if c, ok := n[m.name]; ok {
			count = fmt.Sprintf("n=%d", c)
		} else if c, ok := hostN[m.name]; ok {
			count = fmt.Sprintf("n=%d repetitions", c)
		}
		heldCol := ""
		if h, ok := heldV[m.name]; ok {
			heldCol = fmt.Sprintf("held-out %.6g", h)
		}
		fmt.Printf("%-36s %14.6g %-6s %-22s %s\n", m.name, v[m.name], m.unit, count, heldCol)
	}
	fmt.Println("# end-to-end")
	for _, m := range e2e {
		show(m)
	}
	show(metric{"set_p999_us", "us"})
	for _, m := range layers[:4] {
		show(m)
	}
	if traced {
		fmt.Println("# per layer")
		for _, m := range layers[4:] {
			show(m)
		}
	}
}

package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ditto/internal/core"
	"ditto/internal/exec"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/workload"
)

// churnRow is one measured configuration of the churn scenario, as
// serialized into BENCH_churn.json.
type churnRow struct {
	Mode       string  `json:"mode"` // "inline-serial" | "background-serial" | "background-doorbell"
	Mops       float64 `json:"mops"`
	SetP50Us   float64 `json:"set_p50_us"`
	SetP99Us   float64 `json:"set_p99_us"`
	P99Speedup float64 `json:"set_p99_speedup_vs_inline_serial"`
	HitRate    float64 `json:"hit_rate"`

	// Eviction observability (core.Stats, aggregated over the clients
	// plus the reclaimer).
	Evictions          int64   `json:"evictions"`
	SampledPerEviction float64 `json:"sampled_slots_per_eviction"`
	EvictResamples     int64   `json:"evict_resamples"`
	WriteStallTicks    int64   `json:"write_stall_ticks"`
	WriteStallMs       float64 `json:"write_stall_ms"` // eviction-stall time, all clients
	ReclaimerEvictions int64   `json:"reclaimer_evictions"`
	ReclaimerWakeups   int64   `json:"reclaimer_wakeups"`

	// Host-side cost of simulating the measured phase (see Result):
	// allocations and wall-clock nanoseconds per operation — the
	// simulator-hot-path figures the alloc gate diffs across commits.
	AllocsPerOp float64 `json:"allocs_per_op"`
	HostNsPerOp float64 `json:"host_ns_per_op"`
}

// Churn measures eviction as a first-class I/O plane: write-heavy
// zipfian churn at ~100% heap occupancy, where every insert needs a
// block some victim must give up. Three reclaim configurations run the
// SAME workload:
//
//   - inline-serial: no background reclaimer; each Set that cannot
//     allocate runs the eviction verb chain itself, one verb per RTT —
//     the paper-faithful baseline, with the whole chain on the write's
//     critical path.
//   - background-serial: the proactive reclaimer evicts ahead of demand
//     between the free-space watermarks, but runs its plans serially.
//   - background-doorbell: the reclaimer additionally batches its
//     eviction plans — one doorbell samples several windows and CASes
//     several victims per round.
//
// The headline is Set p99: inline eviction puts sample READ, per-
// candidate ext READs (the GDSF expert), history FAA and victim CAS on
// the tail of every allocating Set, while background reclaim leaves
// Sets stalling only when the reclaimer genuinely fell behind — visible
// as write_stall_ms and the p99 gap. background-serial typically CANNOT
// keep up (stall ticks pile up and p99 explodes): one reclaimer issuing
// one verb per RTT evicts slower than many writers allocate, so the
// doorbell batching is what makes background reclaim viable at all.
func Churn(w io.Writer, scale Scale) error {
	header(w, "Churn: write-heavy zipf at ~100% occupancy — inline vs background reclaim")
	objects := scale.pick(2000, 8000)
	clients := scale.pick(8, 24)
	opsEach := scale.pick(2500, 10000)

	modes := []struct {
		name       string
		background bool
		strat      exec.Strategy
	}{
		{"inline-serial", false, exec.Serial},
		{"background-serial", true, exec.Serial},
		{"background-doorbell", true, exec.Doorbell},
	}
	row(w, "mode", "tput(Mops)", "set p50(us)", "set p99(us)", "p99 speedup", "hit rate", "stall(ms)")
	var rows []churnRow
	baseP99 := 0.0
	for _, md := range modes {
		res, setHist, st, rs := runChurn(objects, clients, opsEach, md.background, md.strat)
		p50 := float64(setHist.Percentile(50)) / 1000
		p99 := float64(setHist.Percentile(99)) / 1000
		if md.name == "inline-serial" {
			baseP99 = p99
		}
		speedup := 0.0
		if p99 > 0 {
			speedup = baseP99 / p99
		}
		stallMs := float64(st.WriteStallNs) / 1e6
		row(w, md.name, res.Mops(), p50, p99, speedup, res.HitRate(), stallMs)
		fmt.Fprintf(w, "  evictions: %d client + %d reclaimer (%.1f slots sampled/eviction, %d resamples), %d stall ticks, %d wakeups\n",
			st.Evictions, rs.Evictions, sampledPerEviction(st, rs), st.EvictResamples+rs.EvictResamples,
			st.WriteStallTicks, rs.ReclaimerWakeups)
		rows = append(rows, churnRow{
			Mode: md.name, Mops: res.Mops(), SetP50Us: p50, SetP99Us: p99,
			P99Speedup: speedup, HitRate: res.HitRate(),
			Evictions:          st.Evictions + rs.Evictions,
			SampledPerEviction: sampledPerEviction(st, rs),
			EvictResamples:     st.EvictResamples + rs.EvictResamples,
			WriteStallTicks:    st.WriteStallTicks,
			WriteStallMs:       stallMs,
			ReclaimerEvictions: rs.Evictions,
			ReclaimerWakeups:   rs.ReclaimerWakeups,
			AllocsPerOp:        res.AllocsPerOp(),
			HostNsPerOp:        res.HostNsPerOp(),
		})
	}
	return writeJSONSummary(w, map[string]interface{}{
		"scenario": "churn",
		"scale":    scale.String(),
		"objects":  objects,
		"clients":  clients,
		"ops_each": opsEach,
		"results":  rows,
	})
}

// sampledPerEviction folds client and reclaimer sampling into the
// slots-sampled-per-eviction figure.
func sampledPerEviction(st, rs core.Stats) float64 {
	ev := st.Evictions + rs.Evictions
	if ev == 0 {
		return 0
	}
	return float64(st.SampledSlots+rs.SampledSlots) / float64(ev)
}

// runChurn loads one MN to capacity, then runs `clients` closed-loop
// clients issuing 70% Sets / 30% Gets over zipf(0.8) keys drawn from a
// keyspace 3x the cache capacity — every Set of an uncached key must
// claim a block from some victim. (Moderate skew: heavier tails shift
// the Set tail to hot-key CAS contention, which no reclaim scheme can
// remove; 0.8 keeps the tail owned by eviction work.) It returns the
// aggregate result, the Set latency histogram, the summed client stats,
// and the reclaimer's. Eviction batches run under strat.
func runChurn(objects, clients, opsEach int, background bool, strat exec.Strategy) (Result, *stats.Histogram, core.Stats, core.Stats) {
	defer core.SetMaintenanceStrategy(strat)()
	env := sim.NewEnv(benchSeed(43))
	// 320-byte-class values against a CacheBytes of objects*320: the heap
	// binds at ~`objects` live keys, the table (2.5 slots per expected
	// object) does not.
	opts := core.DefaultOptions(objects, objects*320)
	// A three-expert mix including GDSF: its extension metadata makes the
	// sampling chain pay per-candidate ext READs — the client-overhead
	// regime where moving eviction off the write path matters most.
	opts.Experts = []string{"LRU", "LFU", "GDSF"}
	cl := core.NewCluster(env, opts)
	if background {
		cl.EnableBackgroundReclaim(0, 0)
	}
	factory := DittoFactory(cl)
	RunLoad(env, factory, loadKeys(objects), 16)

	keyspace := uint64(objects * 3)
	res := Result{Hist: &stats.Histogram{}}
	setHist := &stats.Histogram{}
	var clientStats core.Stats
	meter := startHostMeter()
	start := env.Now()
	for i := 0; i < clients; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			c := cl.NewClient(p)
			c.OnOp = func(op core.OpKind, latency int64, hit bool) {
				res.Hist.Record(latency)
				if op == core.OpSet {
					setHist.Record(latency)
				}
			}
			rng := rand.New(rand.NewSource(int64(500 + i)))
			next := zipfSampler(rng, 0.8, keyspace)
			for n := 0; n < opsEach; n++ {
				k := workload.KeyBytes(next())
				if rng.Intn(10) < 7 {
					c.Set(k, make([]byte, 240))
				} else if _, ok := c.Get(k); ok {
					res.Hits++
				} else {
					res.Misses++
				}
				res.Ops++
			}
			clientStats.Add(c.Stats)
		})
	}
	env.Run()
	res.ElapsedNs = env.Now() - start
	meter.stop(&res)
	return res, setHist, clientStats, cl.ReclaimerStats()
}

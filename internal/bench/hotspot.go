package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ditto/internal/core"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/workload"
)

// hotspotRow is one measured configuration of the hotspot scenario, as
// serialized into BENCH_hotspot.json.
type hotspotRow struct {
	Theta      float64 `json:"theta"`
	Keys       int     `json:"keys"`      // key space the zipf draws from
	Workload   string  `json:"workload"`  // "read-only" | "mixed-5pct-writes"
	Mode       string  `json:"mode"`      // "unreplicated" | "replicated" | "replicated-32-entries"
	LocCache   bool    `json:"loc_cache"` // client-side location cache on?
	Mops       float64 `json:"mops"`
	Speedup    float64 `json:"speedup_vs_unreplicated"`
	HitRate    float64 `json:"hit_rate"`
	Imbalance  float64 `json:"read_imbalance"` // max node share / mean share (1.0 = even)
	Promotions int64   `json:"promotions"`
	Demotions  int64   `json:"demotions"`
	// AdmissionRejects counts promotion candidates the full directory
	// turned away (MultiCluster.AdmissionRejects); GateRejects counts
	// candidates the replication gate turned away because spreading them
	// would not relieve the busiest of their nodes
	// (MultiCluster.GateRejects).
	AdmissionRejects int64 `json:"admission_rejects"`
	GateRejects      int64 `json:"gate_rejects"`
	SpreadReads      int64 `json:"spread_reads"`

	// Speculative-Get effectiveness over the measured phase: the fraction
	// of Gets served by one validated hinted READ, and the mean READ verbs
	// each Get cost (2.0 with the cache off: bucket + object; approaching
	// 1.0 as hints hit — eviction sampling and write-path candidate READs
	// keep it from reaching the floor exactly).
	SpecGetHitRate float64 `json:"spec_get_hit_rate"`
	VerbsPerGet    float64 `json:"verbs_per_get"`

	// Host-side cost of simulating the measured phase (see Result): the
	// alloc gate diffs these across commits.
	AllocsPerOp float64 `json:"allocs_per_op"`
	HostNsPerOp float64 `json:"host_ns_per_op"`
}

// Hotspot measures the hot-key replication lever on a 4-MN pool, with
// and without replication. The headline rows are read-only zipfian
// closed loops (the canonical YCSB-C-style cache read workload) across
// skew exponents from YCSB's 0.99 up to the heavy hot tails real cache
// front ends report: unreplicated, the ring concentrates the hot tail
// on whichever MNs own the top keys and their RNICs become the binding
// resource while the others idle — visible as read_imbalance well above
// 1. With replication (factor 3: hot keys copied to every other MN),
// promoted reads rotate across all four nodes, imbalance collapses to
// ~1, and closed-loop throughput scales with the aggregate RNIC budget:
// >=2x at the heavy tail, smaller at moderate skew where no single node
// is as saturated.
//
// The final pair repeats the heavy tail with 5% writes. Every write to
// a replicated key suspends that key's spreading for the write's span
// (the invalidate-first write-through empties the replicas before the
// new value becomes readable — the price of linearizable reads), and
// under saturation those spans stretch, so the speedup shrinks. That
// shape is the point: replication pays on read-dominated hot keys,
// which is why write-heavy keys are demoted rather than replicated.
//
// A replicated row reruns the 0.99 read-only workload with a directory
// of only hotspotSmallDirectory entries, fewer than the keys that pass
// the promotion threshold: it exercises the directory's admission rule,
// whose turned-away candidates the admission_rejects field counts.
//
// The last pair runs zipf 0.99 with 5% writes over hotspotWideKeys keys,
// the key space of perfbench's read-hot workload: spread that thin, the
// hot tail no longer piles onto one node and the ring alone keeps the
// busiest node within ~15% of the mean. Replicating every key past the
// threshold then buys little balance and makes each hot write pay the
// write-through; the replication gate (gate_rejects counts its refusals)
// must keep the replicated run at least as fast as the unreplicated one.
func Hotspot(w io.Writer, scale Scale) error {
	header(w, "Hotspot: hot-key replication + load-aware read spreading, 4 MNs")
	keys := scale.pick(2048, 16384)
	clients := scale.pick(48, 96)
	opsEach := scale.pick(1500, 8000)

	var rows []hotspotRow
	configs := []struct {
		theta      float64
		writeDenom int // 0 = read-only, N = 1-in-N writes
		label      string
	}{
		{0.99, 0, "read-only"},
		{1.3, 0, "read-only"},
		{1.6, 0, "read-only"},
		{1.6, 20, "mixed-5pct-writes"},
	}
	for _, cfg := range configs {
		for _, locCache := range []bool{false, true} {
			fmt.Fprintf(w, "-- zipf theta=%.2f, %s, loc-cache %s --\n",
				cfg.theta, cfg.label, onOff(locCache))
			row(w, "mode", "tput(Mops)", "speedup", "hit rate", "imbalance", "spec hit", "verbs/get")
			base := 0.0
			for _, maxHot := range []int{0, hotspotMaxHotKeys} {
				m := runHotspot(cfg.theta, maxHot, locCache, keys, clients, opsEach, cfg.writeDenom)
				if maxHot == 0 {
					base = m.res.Mops()
				}
				rows = append(rows, hotspotResultRow(w, cfg.theta, cfg.label, locCache, base, m))
			}
		}
	}
	fmt.Fprintf(w, "-- zipf theta=0.99, read-only, loc-cache off, %d-entry directory --\n", hotspotSmallDirectory)
	row(w, "mode", "tput(Mops)", "speedup", "hit rate", "imbalance", "spec hit", "verbs/get")
	m := runHotspot(0.99, hotspotSmallDirectory, false, keys, clients, opsEach, 0)
	rows = append(rows, hotspotResultRow(w, 0.99, "read-only", false, rows[0].Mops, m))
	fmt.Fprintf(w, "-- zipf theta=0.99, mixed-5pct-writes, loc-cache off, %d keys --\n", hotspotWideKeys)
	row(w, "mode", "tput(Mops)", "speedup", "hit rate", "imbalance", "spec hit", "verbs/get")
	base := 0.0
	for _, maxHot := range []int{0, hotspotMaxHotKeys} {
		m := runHotspot(0.99, maxHot, false, hotspotWideKeys, clients, opsEach, 20)
		if maxHot == 0 {
			base = m.res.Mops()
		}
		rows = append(rows, hotspotResultRow(w, 0.99, "mixed-5pct-writes", false, base, m))
	}
	return writeJSONSummary(w, map[string]interface{}{
		"scenario":        "hotspot",
		"scale":           scale.String(),
		"keys":            keys,
		"clients":         clients,
		"nodes":           4,
		"loc_cache_slots": hotspotLocSlots,
		"results":         rows,
	})
}

// hotspotResultRow prints one measurement's table line (plus the
// directory counters for replicated runs) and returns its JSON row;
// base is the throughput of the matching unreplicated run.
func hotspotResultRow(w io.Writer, theta float64, label string, locCache bool, base float64, m hotspotMeasure) hotspotRow {
	mode := "unreplicated"
	if m.maxHot == hotspotMaxHotKeys {
		mode = "replicated"
	} else if m.maxHot > 0 {
		mode = fmt.Sprintf("replicated-%d-entries", m.maxHot)
	}
	speedup := 0.0
	if base > 0 {
		speedup = m.res.Mops() / base
	}
	row(w, mode, m.res.Mops(), speedup, m.res.HitRate(), m.imb, m.spec, m.vpg)
	if m.maxHot > 0 {
		fmt.Fprintf(w, "promotions: %d, demotions: %d, admission rejects: %d, gate rejects: %d, spread reads: %d\n",
			m.mc.Promotions, m.mc.Demotions, m.mc.AdmissionRejects, m.mc.GateRejects, m.mc.SpreadReads)
	}
	return hotspotRow{
		Theta: theta, Keys: m.keys, Workload: label, Mode: mode, LocCache: locCache,
		Mops: m.res.Mops(), Speedup: speedup, HitRate: m.res.HitRate(), Imbalance: m.imb,
		Promotions: m.mc.Promotions, Demotions: m.mc.Demotions,
		AdmissionRejects: m.mc.AdmissionRejects, GateRejects: m.mc.GateRejects, SpreadReads: m.mc.SpreadReads,
		SpecGetHitRate: m.spec, VerbsPerGet: m.vpg,
		AllocsPerOp: m.res.AllocsPerOp(), HostNsPerOp: m.res.HostNsPerOp(),
	}
}

// onOff renders a bool dimension for the text table headers.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// hotspotLocSlots is the per-client location-cache capacity the loc-cache
// rows run with: enough for the zipfian hot tail that dominates the Gets,
// far from enough to pin the whole key space — the regime the hint cache
// is built for.
const hotspotLocSlots = 4096

// hotspotMaxHotKeys is the replicated rows' directory capacity: it
// comfortably covers the hot tail at quick scale. hotspotSmallDirectory
// is the admission row's: at either scale far fewer entries than the
// zipf-0.99 keys that cross the promotion threshold. hotspotWideKeys is
// the last pair's key space at either scale, perfbench read-hot's.
const (
	hotspotMaxHotKeys     = 512
	hotspotSmallDirectory = 32
	hotspotWideKeys       = 100_000
)

// hotspotMeasure is one runHotspot measurement.
type hotspotMeasure struct {
	res    Result
	keys   int
	imb    float64
	mc     *core.MultiCluster
	maxHot int     // directory capacity; 0 = replication off
	spec   float64 // fraction of Gets served speculatively
	vpg    float64 // READ verbs per Get over the measured phase
}

// runHotspot runs `clients` closed-loop clients (zipf(theta)-skewed
// keys; writeDenom == 0 means read-only, N means 1-in-N ops are Sets)
// against a 4-MN pool — replicating hot keys into a directory of
// maxHot entries, or unreplicated when maxHot is 0 — and reports the
// result plus the per-node served-read imbalance. theta <= 1 uses the
// YCSB scrambled-zipfian generator; heavier tails use the classical
// zipf sampler (math/rand.Zipf), whose rank-0 key is simply key 0 —
// ring placement hashes the key bytes, so the hot ranks still land on
// effectively random nodes.
func runHotspot(theta float64, maxHot int, locCache bool, keys, clients, opsEach, writeDenom int) hotspotMeasure {
	env := sim.NewEnv(benchSeed(29))
	opts := core.DefaultOptions(keys*3, keys*1200) // headroom for 1+R hot-key copies
	if locCache {
		opts.LocCacheSlots = hotspotLocSlots
	}
	// The replication lever only matters once a single MN's RNIC is the
	// binding resource. The default calibration's 40 M msg/s per node
	// needs hundreds of closed-loop clients to saturate; scale the
	// message rate down (the reproduction target is the SHAPE: what
	// happens once the hot node saturates) so a quick run reaches that
	// regime with tens of clients.
	opts.Fabric.MsgSvc = 300 // ~3.3 M msg/s per MN
	mc := core.NewMultiCluster(env, 4, opts)
	if maxHot > 0 {
		// Copies on every other MN, promotion after a few dozen observed
		// hits.
		mc.EnableHotKeyReplication(3, 32, maxHot)
	}
	factory := func(p *sim.Proc) CacheOps { return mc.NewClient(p) }
	RunLoad(env, factory, loadKeys(keys), 16)

	// Verb deltas start AFTER the load phase so verbs_per_get charges only
	// the measured clients' traffic (plus the eviction/write READs their
	// ops trigger — part of the honest per-Get cost).
	reads0 := nodeReads(mc)
	res := Result{}
	var agg core.Stats
	meter := startHostMeter()
	start := env.Now()
	for w := 0; w < clients; w++ {
		w := w
		env.Go("client", func(p *sim.Proc) {
			m := mc.NewClient(p)
			rng := rand.New(rand.NewSource(int64(300 + w)))
			next := zipfSampler(rng, theta, uint64(keys))
			for i := 0; i < opsEach; i++ {
				k := workload.KeyBytes(next())
				if writeDenom > 0 && rng.Intn(writeDenom) == 0 {
					m.Set(k, make([]byte, 240))
				} else if _, ok := m.Get(k); ok {
					res.Hits++
				} else {
					res.Misses++
				}
				res.Ops++
			}
			agg.Add(m.Stats())
		})
	}
	env.Run()
	res.ElapsedNs = env.Now() - start
	meter.stop(&res)

	served := make([]int64, mc.NumNodes())
	for i := range served {
		served[i] = mc.Node(i).ServedReads()
	}
	vpg := 0.0
	if agg.Gets > 0 {
		vpg = float64(nodeReads(mc)-reads0) / float64(agg.Gets)
	}
	return hotspotMeasure{
		res: res, keys: keys, imb: stats.Imbalance(served), mc: mc, maxHot: maxHot,
		spec: agg.SpecGetHitRate(), vpg: vpg,
	}
}

// nodeReads sums the READ verb counters across the pool's RNICs.
func nodeReads(mc *core.MultiCluster) int64 {
	var n int64
	for i := 0; i < mc.NumNodes(); i++ {
		n += mc.Node(i).MN.Node.Stats.Reads
	}
	return n
}

// zipfSampler returns a key sampler for the given skew: the YCSB
// scrambled-zipfian port for theta < 1, math/rand's classical zipf for
// theta >= 1 (the YCSB formula diverges there).
func zipfSampler(rng *rand.Rand, theta float64, keys uint64) func() uint64 {
	if theta < 1 {
		z := workload.NewScrambledZipfian(keys, theta)
		return func() uint64 { return z.Next(rng) }
	}
	z := rand.NewZipf(rng, theta, 1, keys-1)
	return z.Uint64
}

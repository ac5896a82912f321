package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
	"ditto/internal/workload"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"": Quick, "quick": Quick, "full": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("no error for unknown scale")
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
}

func TestRegistryCoversEveryExperiment(t *testing.T) {
	want := []string{"1", "2", "3", "4", "5", "13", "14", "15", "16", "17",
		"18", "19", "20", "21", "22", "23", "24", "25", "table3"}
	for _, id := range want {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	extras := []string{"abl-k", "abl-fct", "abl-batch", "abl-hist", "abl-mn",
		"elastic-reshard", "batched-throughput", "hotspot", "churn", "chaos",
		"tenants"}
	for _, id := range extras {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("extra experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(want)+len(extras) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want)+len(extras))
	}
	for id, e := range Experiments {
		if e.Desc == "" {
			t.Errorf("experiment %s has no description", id)
		}
		if Describe(id) != e.Desc {
			t.Errorf("Describe(%s) mismatch", id)
		}
	}
}

func TestElasticReshardScenario(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("elastic-reshard", &buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"before (2 MN)", "reshard", "after (4 MN)", "keys migrated"} {
		if !strings.Contains(out, want) {
			t.Errorf("elastic-reshard output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "reshards: 0") || strings.Contains(out, "keys migrated: 0 ") {
		t.Errorf("no live migration happened:\n%s", out)
	}
	if !strings.Contains(out, "final MNs: 4") {
		t.Errorf("scale-out did not reach 4 MNs:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("99", &bytes.Buffer{}, Quick); err == nil {
		t.Fatal("no error for unknown experiment")
	}
}

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table3", &buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, algo := range []string{"LRU", "LFU", "GDSF", "HYPERBOLIC"} {
		if !strings.Contains(out, algo) {
			t.Errorf("table 3 missing %s", algo)
		}
	}
}

func TestFig04ShowsCrossover(t *testing.T) {
	// The calibrated webmail workload must reproduce the paper's Figure 4
	// shape: LRU best at small cache sizes, LFU best at large ones.
	var buf bytes.Buffer
	if err := Fig04(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	firstBest, lastBest := "", ""
	for _, ln := range lines {
		switch {
		case strings.Contains(ln, "5%") && firstBest == "":
			firstBest = best(ln)
		case strings.Contains(ln, "60%"):
			lastBest = best(ln)
		}
	}
	if firstBest != "LRU" {
		t.Errorf("small-cache best = %q, want LRU\n%s", firstBest, out)
	}
	if lastBest != "LFU" {
		t.Errorf("large-cache best = %q, want LFU\n%s", lastBest, out)
	}
}

func best(line string) string {
	if strings.Contains(line, "LFU") {
		return "LFU"
	}
	if strings.Contains(line, "LRU") {
		return "LRU"
	}
	return ""
}

func TestRunTraceWarmupExcluded(t *testing.T) {
	env := sim.NewEnv(1)
	calls := 0
	factory := func(p *sim.Proc) CacheOps { calls++; return countingOps{&calls, p} }
	trace := make([]workload.Req, 100)
	for i := range trace {
		trace[i] = workload.Req{Key: uint64(i % 10), Size: 64}
	}
	res := RunTrace(env, factory, trace, 2, 2, 0)
	// Two loops executed, but only the second measured.
	if res.Ops != 100 {
		t.Fatalf("measured ops = %d, want 100", res.Ops)
	}
	if calls != 2 { // one client instance per process
		t.Fatalf("factory called %d times", calls)
	}
	if res.Hits+res.Misses != res.Ops {
		t.Fatalf("hits+misses = %d", res.Hits+res.Misses)
	}
}

// countingOps hits every second Get.
type countingOps struct {
	calls *int
	p     *sim.Proc
}

func (c countingOps) Get(key []byte) ([]byte, bool) {
	c.p.Sleep(sim.Microsecond)
	return nil, key[len(key)-1]%2 == 0
}

func (c countingOps) Set(key, value []byte) { c.p.Sleep(sim.Microsecond) }

func TestRunClosedLoopAggregates(t *testing.T) {
	env := sim.NewEnv(1)
	calls := 0
	factory := func(p *sim.Proc) CacheOps { calls++; return countingOps{&calls, p} }
	gen := func(int) workload.Generator { return workload.NewUniform(100, 64, 0.2) }
	res := RunClosedLoop(env, factory, gen, 4, 50, 1)
	if res.Ops != 200 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.ElapsedNs <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.Hist.Count() != 200 {
		t.Fatalf("histogram has %d samples", res.Hist.Count())
	}
	if res.Mops() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestValueForSized(t *testing.T) {
	v := valueFor(workload.Req{Key: 5, Size: 256})
	if len(v) != 240 {
		t.Fatalf("value len = %d", len(v))
	}
	v = valueFor(workload.Req{Key: 5, Size: 4})
	if len(v) < 8 {
		t.Fatalf("tiny value len = %d", len(v))
	}
}

// TestBatchedThroughputSpeedup pins the batching lever's acceptance bar:
// MGet(32) batches must reach at least 3x the throughput of 32
// sequential Gets under YCSB-C at default (quick) scale, with no hit
// rate regression — the load phase populates every key, so both runs
// must stay at hit rate 1.
func TestBatchedThroughputSpeedup(t *testing.T) {
	seq, _, _ := runBatchedYCSB(workload.YCSBC, 2000, 4, 2048, 1, false)
	batched, _, _ := runBatchedYCSB(workload.YCSBC, 2000, 4, 2048, 32, false)
	if seq.HitRate() != 1 || batched.HitRate() != 1 {
		t.Fatalf("hit rates: seq=%v batched=%v, want 1", seq.HitRate(), batched.HitRate())
	}
	if sp := batched.Mops() / seq.Mops(); sp < 3 {
		t.Fatalf("MGet(32) speedup = %.2fx, want >= 3x (seq %.3f Mops, batched %.3f Mops)",
			sp, seq.Mops(), batched.Mops())
	}
}

// TestBatchedLocCacheSpeculation pins the location cache's acceptance
// bar on the read-dominated workload at quick-scale parameters: with
// hints on, a majority of Gets must go speculative, the measured READ
// verbs per Get must drop well below the 2.0 classic floor, and
// throughput must improve — deterministically, same seed both runs.
func TestBatchedLocCacheSpeculation(t *testing.T) {
	off, specOff, vpgOff := runBatchedYCSB(workload.YCSBC, 2000, 4, 2048, 32, false)
	on, specOn, vpgOn := runBatchedYCSB(workload.YCSBC, 2000, 4, 2048, 32, true)
	if specOff != 0 {
		t.Fatalf("spec hit rate = %v with the cache off, want 0", specOff)
	}
	if specOn < 0.5 {
		t.Fatalf("spec hit rate = %.3f with the cache on, want >= 0.5", specOn)
	}
	if vpgOn >= vpgOff || vpgOn > 1.6 {
		t.Fatalf("verbs/get = %.3f with hints (%.3f without), want < 1.6 and below the off run", vpgOn, vpgOff)
	}
	if on.Mops() <= off.Mops() {
		t.Fatalf("loc-cache throughput %.3f Mops did not beat %.3f Mops", on.Mops(), off.Mops())
	}
	if on.HitRate() != off.HitRate() {
		t.Fatalf("hit rate changed with hints: %v vs %v", on.HitRate(), off.HitRate())
	}
}

// TestHotspotReplicationSpeedup pins the hotspot scenario's headline
// claim at quick-scale parameters: on the heavy-tailed zipf workload,
// hot-key replication must at least double read throughput over
// unreplicated ring routing and flatten the per-node read imbalance.
// The sim is deterministic, so these are exact regression bounds, not
// flaky performance assertions.
func TestHotspotReplicationSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	unrep := runHotspot(1.6, 0, false, 2048, 48, 1500, 0)
	rep := runHotspot(1.6, hotspotMaxHotKeys, false, 2048, 48, 1500, 0)
	if sp := rep.res.Mops() / unrep.res.Mops(); sp < 2 {
		t.Fatalf("replication speedup = %.2fx, want >= 2x (unrep %.3f Mops, rep %.3f Mops)",
			sp, unrep.res.Mops(), rep.res.Mops())
	}
	if unrep.imb < 1.5 {
		t.Fatalf("unreplicated imbalance = %.2f: the workload is not skewed enough to test spreading", unrep.imb)
	}
	if rep.imb > 1.2 {
		t.Fatalf("replicated imbalance = %.2f, want near 1 (spreading not working)", rep.imb)
	}
	if rep.mc.Promotions == 0 || rep.mc.SpreadReads == 0 {
		t.Fatalf("replication never engaged: promotions=%d spread=%d", rep.mc.Promotions, rep.mc.SpreadReads)
	}
	// The write-mix shape: every hot write suspends its key's spreading
	// for the write's span, so the speedup shrinks but must remain a
	// clear win over unreplicated routing.
	unrepW := runHotspot(1.6, 0, false, 2048, 48, 1500, 20)
	repW := runHotspot(1.6, hotspotMaxHotKeys, false, 2048, 48, 1500, 20)
	if sp := repW.res.Mops() / unrepW.res.Mops(); sp < 1.3 {
		t.Fatalf("mixed-write replication speedup = %.2fx, want >= 1.3x", sp)
	}
	if repW.mc.SpreadReads == 0 {
		t.Fatal("mixed-write run never spread a read")
	}
	// Speculation composes with spreading: hints record per node, so with
	// the location cache on the replicated heavy tail must go mostly
	// one-RTT while keeping the imbalance collapsed.
	repS := runHotspot(1.6, hotspotMaxHotKeys, true, 2048, 48, 1500, 0)
	if repS.spec < 0.5 {
		t.Fatalf("replicated spec hit rate = %.3f, want >= 0.5", repS.spec)
	}
	if repS.vpg >= rep.vpg {
		t.Fatalf("verbs/get with hints = %.3f, not below the hintless %.3f", repS.vpg, rep.vpg)
	}
	if repS.res.Mops() <= rep.res.Mops() {
		t.Fatalf("loc-cache replicated throughput %.3f Mops did not beat %.3f Mops",
			repS.res.Mops(), rep.res.Mops())
	}
	if repS.imb > 1.2 {
		t.Fatalf("loc-cache replicated imbalance = %.2f, want near 1", repS.imb)
	}
}

// TestHotspotGateWhereRingBalances pins the hotspot scenario's wide-key
// pair at quick-scale parameters: zipf 0.99 with 5% writes over
// hotspotWideKeys keys, where the ring alone keeps the busiest node
// within 15% of the mean. In that regime spreading every key past the
// threshold made hot writes pay the write-through for little balance,
// and replication ran slower than no replication at all; the
// replication gate must keep it at least as fast.
func TestHotspotGateWhereRingBalances(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	unrep := runHotspot(0.99, 0, false, hotspotWideKeys, 48, 1500, 20)
	rep := runHotspot(0.99, hotspotMaxHotKeys, false, hotspotWideKeys, 48, 1500, 20)
	if unrep.imb > 1.15 {
		t.Fatalf("unreplicated imbalance = %.3f: the ring does not balance this workload (want <= 1.15)", unrep.imb)
	}
	if rep.res.Mops() < unrep.res.Mops() {
		t.Fatalf("replicated %.3f Mops below unreplicated %.3f Mops (promotions=%d gate rejects=%d)",
			rep.res.Mops(), unrep.res.Mops(), rep.mc.Promotions, rep.mc.GateRejects)
	}
}

// TestChurnReclaimSpeedup pins the churn scenario's headline at
// quick-scale parameters: under write-heavy zipf churn at full
// occupancy, background doorbell reclaim must beat inline serial
// eviction on Set p99 AND carry the eviction load off the clients. The
// sim is deterministic, so these are exact regression bounds.
func TestChurnReclaimSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	inline, inlineHist, inlineStats, _ := runChurn(2000, 8, 2500, false, exec.Serial)
	back, backHist, backStats, rs := runChurn(2000, 8, 2500, true, exec.Doorbell)
	inlineP99 := float64(inlineHist.Percentile(99))
	backP99 := float64(backHist.Percentile(99))
	if backP99 >= inlineP99 {
		t.Fatalf("background doorbell reclaim p99 = %.1fus not better than inline serial %.1fus",
			backP99/1000, inlineP99/1000)
	}
	if back.Mops() <= inline.Mops() {
		t.Errorf("background reclaim throughput %.3f Mops not above inline %.3f",
			back.Mops(), inline.Mops())
	}
	if rs.Evictions == 0 {
		t.Fatal("reclaimer evicted nothing")
	}
	if heap := backStats.Evictions - backStats.BucketEvictions; heap > rs.Evictions/10 {
		t.Errorf("clients still evicted %d victims inline for heap pressure (reclaimer did %d)",
			heap, rs.Evictions)
	}
	if inlineStats.WriteStallNs == 0 {
		t.Error("inline mode recorded no eviction-stall time; workload not at occupancy")
	}
	if backStats.WriteStallNs >= inlineStats.WriteStallNs {
		t.Errorf("background reclaim did not reduce eviction-stall time: %dns vs %dns",
			backStats.WriteStallNs, inlineStats.WriteStallNs)
	}
}

// TestTenantNoisyNeighborIsolation pins the tenants scenario's
// acceptance bar at quick-scale parameters: with a binding quota on the
// churn tenant, the in-quota serving tenant's Get p99 and hit rate must
// each degrade less than 10% from its solo baseline, and its footprint
// must survive intact — while the same churn with NO quota visibly
// erodes that footprint. The sim is deterministic, so these are exact
// regression bounds.
func TestTenantNoisyNeighborIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	solo := runTenants(2000, 4, 8, 3000, false, true)
	noQuota := runTenants(2000, 4, 8, 3000, true, false)
	quota := runTenants(2000, 4, 8, 3000, true, true)

	if p99Deg := (quota.VictimGetP99Us - solo.VictimGetP99Us) / solo.VictimGetP99Us; p99Deg >= 0.10 {
		t.Fatalf("victim p99 degraded %.1f%% under a quota'd noisy neighbor, want < 10%% (solo %.1fus, quota %.1fus)",
			p99Deg*100, solo.VictimGetP99Us, quota.VictimGetP99Us)
	}
	if hitDeg := (solo.VictimHitRate - quota.VictimHitRate) / solo.VictimHitRate; hitDeg >= 0.10 {
		t.Fatalf("victim hit rate degraded %.1f%% under a quota'd noisy neighbor, want < 10%% (solo %.3f, quota %.3f)",
			hitDeg*100, solo.VictimHitRate, quota.VictimHitRate)
	}
	// Quota steering keeps the victim's footprint intact...
	if quota.VictimUsageBytes < solo.VictimUsageBytes*9/10 {
		t.Fatalf("victim footprint eroded despite quotas: %d B vs solo %d B",
			quota.VictimUsageBytes, solo.VictimUsageBytes)
	}
	// ...while the unquota'd churn demonstrably erodes it (the negative
	// space that proves the scenario exerts real pressure).
	if noQuota.VictimUsageBytes >= solo.VictimUsageBytes*3/4 {
		t.Fatalf("unquota'd churn did not pressure the victim: %d B vs solo %d B",
			noQuota.VictimUsageBytes, solo.VictimUsageBytes)
	}
	if quota.NoisyShedOps == 0 {
		t.Fatal("overload control never shed a batched write from the over-quota tenant")
	}
}

// TestJSONRefusesForeignOverwrite pins the -json clobber guard: a path
// holding a different scenario's artifact must be refused with a clear
// error, while re-running the same scenario refreshes it in place.
func TestJSONRefusesForeignOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/BENCH_a.json"
	defer func() { JSONPath, jsonWrittenBy = "", "" }()

	JSONPath, jsonWrittenBy = path, ""
	var buf bytes.Buffer
	if err := writeJSONSummary(&buf, map[string]interface{}{"scenario": "aaa", "x": 1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Same scenario, fresh invocation: refresh in place.
	JSONPath, jsonWrittenBy = path, ""
	if err := writeJSONSummary(&buf, map[string]interface{}{"scenario": "aaa", "x": 2}); err != nil {
		t.Fatalf("same-scenario refresh refused: %v", err)
	}
	// Different scenario, fresh invocation: must refuse, artifact intact.
	JSONPath, jsonWrittenBy = path, ""
	err := writeJSONSummary(&buf, map[string]interface{}{"scenario": "bbb"})
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("foreign overwrite not refused: %v", err)
	}
	blob, rerr := os.ReadFile(path)
	if rerr != nil || !strings.Contains(string(blob), `"aaa"`) || !strings.Contains(string(blob), `"x": 2`) {
		t.Fatalf("artifact damaged by refused write: %s", blob)
	}
	// Within one -all run the suffixing convention still applies: the
	// second scenario diverts to its own file rather than erroring.
	if err := writeJSONSummary(&buf, map[string]interface{}{"scenario": "aaa", "x": 3}); err != nil {
		t.Fatalf("registered-scenario rewrite: %v", err)
	}
	if err := writeJSONSummary(&buf, map[string]interface{}{"scenario": "ccc"}); err != nil {
		t.Fatalf("multi-scenario run diverted write failed: %v", err)
	}
	if _, err := os.Stat(dir + "/BENCH_a-ccc.json"); err != nil {
		t.Fatalf("diverted artifact missing: %v", err)
	}
}

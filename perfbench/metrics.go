package main

// metric is one reported figure.
type metric struct{ name, unit string }

// e2e lists the end-to-end metrics every workload reports.
var e2e = []metric{
	{"throughput_mops", "Mops"},
	{"hit_rate", "ratio"},
	{"get_p50_us", "us"},
	{"get_p999_us", "us"},
	{"set_p50_us", "us"},
	{"set_p99_us", "us"},
	{"host_ns_per_op", "ns"},
	{"allocs_per_op", "count"},
	{"host_heap_mb", "MB"},
	{"setup_s", "s"},
}

// layers lists the per-layer metrics. The first four are end-to-end
// figures that only one workload exercises (MGet on read-hot, membership
// changes on elastic) or that are zero when the run is correct
// (error_rate); they are reported here, with the traced run, because an
// end-to-end metric must be non-zero on every workload.
var layers = []metric{
	{"mget_p50_us", "us"},
	{"mget_p999_us", "us"},
	{"rebalance_ms", "ms"},
	{"error_rate", "ratio"},

	{"sim.host_ns_per_switch", "ns"},
	{"rdma.host_ns_per_verb", "ns"},
	{"rdma.reads_per_op", "count"},
	{"rdma.writes_per_op", "count"},
	{"rdma.cas_per_op", "count"},
	{"rdma.faa_per_op", "count"},
	{"rdma.rpcs_per_op", "count"},
	{"rdma.bytes_per_op", "B"},
	{"rdma.doorbells_per_op", "count"},
	{"rdma.verbs_per_doorbell", "count"},
	{"rdma.nic_util_max", "ratio"},
	{"rdma.nic_imbalance", "ratio"},
	{"rdma.cpu_util_max", "ratio"},
	{"exec.doorbells_per_batch_call", "count"},
	{"core.spec_get_hit_rate", "ratio"},
	{"core.spec_get_fallback_rate", "ratio"},
	{"core.set_retries_per_set", "count"},
	{"core.evictions_per_set", "count"},
	{"core.sampled_slots_per_eviction", "count"},
	{"core.evict_resamples_per_eviction", "count"},
	{"core.write_stall_us_per_set", "us"},
	{"core.reclaimer_eviction_share", "ratio"},
	{"core.regrets_per_miss", "count"},
	{"core.host_self_ns_per_op", "ns"},
	{"adaptive.weight.LRU.p1", "ratio"},
	{"adaptive.weight.LFU.p1", "ratio"},
	{"adaptive.weight.LRU.p2", "ratio"},
	{"adaptive.weight.LFU.p2", "ratio"},
	{"replica.spread_read_share", "ratio"},
	{"replica.served_read_imbalance", "ratio"},
	{"replica.promotions", "count"},
	{"replica.demotions", "count"},
	{"reshard.migrated_keys", "count"},
	{"reshard.keys_per_ms", "1/ms"},
	{"reshard.window_get_p999_us", "us"},
	{"reshard.window_hit_rate", "ratio"},
	{"memnode.heap_occupancy", "ratio"},
	{"bench.host_ns_per_req", "ns"},
	{"bench.allocs_per_req", "count"},
	{"trace.overhead", "ratio"},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// virtual computes every metric that is a function of virtual time and
// counters alone, so it is identical for every repetition of one seed.
// It also returns the sample count behind each timing.
func (r *rep) virtual() (m map[string]float64, n map[string]int) {
	rec := r.rec
	m, n = map[string]float64{}, map[string]int{}
	window := rec.to - rec.from
	timing := func(prefix string, s *samples) {
		t := summarize(s)
		m[prefix+"_p50_us"], m[prefix+"_p99_us"], m[prefix+"_p999_us"] = t.p50, t.p99, t.p999
		n[prefix+"_p50_us"], n[prefix+"_p99_us"], n[prefix+"_p999_us"] = t.n, t.n, t.n
	}
	m["throughput_mops"] = float64(rec.requests) * 1e3 / float64(window)
	n["throughput_mops"] = int(rec.requests)
	m["hit_rate"] = ratio(rec.hits, rec.lookups)
	n["hit_rate"] = int(rec.lookups)
	timing("get", &rec.get)
	timing("set", &rec.set)
	timing("mget", &rec.mget)
	m["rebalance_ms"] = float64(r.rebalanceNs) / 1e6
	m["error_rate"] = ratio(rec.failed, rec.attempted)
	n["error_rate"] = int(rec.attempted)

	// rdma, over the measured window and per request.
	w0, w1 := r.snaps[r.w0], r.snaps[len(r.snaps)-1]
	var d nodeCtr
	var nic, cpu, served []int64
	for id, e := range w1.nodes {
		b := w0.nodes[id] // zero for a node added inside the window
		d.verbs.Reads += e.verbs.Reads - b.verbs.Reads
		d.verbs.Writes += e.verbs.Writes - b.verbs.Writes
		d.verbs.CASes += e.verbs.CASes - b.verbs.CASes
		d.verbs.FAAs += e.verbs.FAAs - b.verbs.FAAs
		d.verbs.RPCs += e.verbs.RPCs - b.verbs.RPCs
		d.verbs.ReadBytes += e.verbs.ReadBytes - b.verbs.ReadBytes
		d.verbs.WriteBytes += e.verbs.WriteBytes - b.verbs.WriteBytes
		d.verbs.DoorbellBatches += e.verbs.DoorbellBatches - b.verbs.DoorbellBatches
		d.verbs.BatchedVerbs += e.verbs.BatchedVerbs - b.verbs.BatchedVerbs
		d.reclaim.add(e.reclaim, 1)
		d.reclaim.add(b.reclaim, -1)
		nic = append(nic, e.nicBusy-b.nicBusy)
		cpu = append(cpu, e.cpuBusy-b.cpuBusy)
		served = append(served, e.served-b.served)
	}
	req := rec.requests
	v := d.verbs
	m["rdma.reads_per_op"] = ratio(v.Reads, req)
	m["rdma.writes_per_op"] = ratio(v.Writes, req)
	m["rdma.cas_per_op"] = ratio(v.CASes, req)
	m["rdma.faa_per_op"] = ratio(v.FAAs, req)
	m["rdma.rpcs_per_op"] = ratio(v.RPCs, req)
	m["rdma.bytes_per_op"] = ratio(v.ReadBytes+v.WriteBytes, req)
	m["rdma.doorbells_per_op"] = ratio(v.DoorbellBatches, req)
	m["rdma.verbs_per_doorbell"] = ratio(v.BatchedVerbs, v.DoorbellBatches)
	m["rdma.nic_util_max"] = ratio(maxOf(nic), window)
	m["rdma.nic_imbalance"] = imbalance(nic)
	m["rdma.cpu_util_max"] = ratio(maxOf(cpu), window)
	m["exec.doorbells_per_batch_call"] = ratio(v.DoorbellBatches, rec.batchCalls)

	// core: the clients' counters plus the background reclaimer's.
	c, rc := r.core, d.reclaim
	ev := c.evictions + rc.evictions
	m["core.spec_get_hit_rate"] = ratio(c.specHits, c.gets)
	m["core.spec_get_fallback_rate"] = ratio(c.specFallbacks, c.gets)
	m["core.set_retries_per_set"] = ratio(c.retries, c.sets)
	m["core.evictions_per_set"] = ratio(ev, c.sets)
	m["core.sampled_slots_per_eviction"] = ratio(c.sampled+rc.sampled, ev)
	m["core.evict_resamples_per_eviction"] = ratio(c.resamples+rc.resamples, ev)
	m["core.write_stall_us_per_set"] = ratio(c.stallNs, c.sets) / 1e3
	m["core.reclaimer_eviction_share"] = ratio(rc.evictions, ev)
	m["core.regrets_per_miss"] = ratio(c.regrets, c.misses)

	p1 := r.snaps[r.p1]
	m["adaptive.weight.LRU.p1"], m["adaptive.weight.LFU.p1"] = p1.weights[0], p1.weights[1]
	m["adaptive.weight.LRU.p2"], m["adaptive.weight.LFU.p2"] = w1.weights[0], w1.weights[1]

	m["replica.spread_read_share"] = ratio(w1.spreadReads-w0.spreadReads, rec.lookups)
	m["replica.served_read_imbalance"] = imbalance(served)
	m["replica.promotions"] = float64(w1.promotions - w0.promotions)
	m["replica.demotions"] = float64(w1.demotions - w0.demotions)

	// Resharding counts to the end of the run, not of the window: a
	// reshard still migrating when the clients stop runs to completion.
	var migrated, reshardNs int64
	if mc := r.mc; mc != nil {
		migrated = mc.MigratedKeys - r.snaps[0].migrated
		reshardNs = mc.ReshardNs - r.snaps[0].reshardNs
	}
	m["reshard.migrated_keys"] = float64(migrated)
	m["reshard.keys_per_ms"] = ratio(migrated*1e6, reshardNs)
	wt := summarize(&rec.windowGet)
	m["reshard.window_get_p999_us"] = wt.p999
	n["reshard.window_get_p999_us"] = wt.n
	m["reshard.window_hit_rate"] = ratio(rec.windowHits, int64(wt.n))
	m["memnode.heap_occupancy"] = ratio(w1.usedBytes, w1.heapBytes)
	return m, n
}

// verbsPerRequest is every verb of the whole run (warm-up included) per
// request, the base host_ns_per_op is measured over.
func (r *rep) verbsPerRequest() float64 {
	s0, s1 := r.snaps[0], r.snaps[len(r.snaps)-1]
	var verbs int64
	for id, e := range s1.nodes {
		b := s0.nodes[id]
		verbs += e.verbs.Total() - b.verbs.Total()
	}
	return ratio(verbs, r.allRequests)
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// imbalance is the largest of xs over their mean (1 is even), 0 when all
// are zero.
func imbalance(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return float64(maxOf(xs)) * float64(len(xs)) / float64(sum)
}

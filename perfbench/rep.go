package main

import (
	"runtime"
	"sort"
	"syscall"

	"ditto"
	"ditto/internal/rdma"
)

// opKind names the public calls the recorder times.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDelete
	opMGet
	opMSet
)

var opNames = [...]string{"Get", "Set", "Delete", "MGet", "MSet"}

// recorder accumulates one repetition's virtual-time observations. Only
// one sim process runs at a time, so it needs no locking.
type recorder struct {
	from, to int64 // the measured window

	get, set, mget samples
	lookups, hits  int64 // keys looked up in the window, and found
	requests       int64 // requests completed in the window (a window of n keys counts n)
	allRequests    int64 // requests completed over the whole run
	attempted      int64 // cache calls started in the window
	failed         int64 // TrySet errors plus values that failed their check
	batchCalls     int64 // MGet/MSet calls in the window

	// Gets that completed while a reshard was migrating keys.
	reshardOpen bool
	windowGet   samples
	windowHits  int64

	tr *tracer // nil in untraced runs
}

// reset readies the recorder for a repetition measuring [from, to),
// keeping the sample arrays.
func (r *recorder) reset(from, to int64, tr *tracer) {
	*r = recorder{
		from: from, to: to, tr: tr,
		get: r.get, set: r.set, mget: r.mget, windowGet: r.windowGet,
	}
	r.get.reset()
	r.set.reset()
	r.mget.reset()
	r.windowGet.reset()
	if tr != nil {
		tr.reset()
	}
}

func (r *recorder) in(t int64) bool { return t >= r.from && t < r.to }

func (r *recorder) request(now int64, n int) {
	r.allRequests += int64(n)
	if r.in(now) {
		r.requests += int64(n)
	}
}

// op records one completed cache call that started at t0 and ended at t1.
func (r *recorder) op(k opKind, client int, t0, t1 int64, failed bool) {
	if r.tr != nil {
		r.tr.op(k, client, t0, t1)
	}
	if !r.in(t0) {
		return
	}
	r.attempted++
	if failed {
		r.failed++
	}
	switch k {
	case opSet:
		r.set.add(t1 - t0)
	case opMSet:
		r.batchCalls++
	}
}

// lookup records one Get; intact is false when a hit's value failed its
// check.
func (r *recorder) lookup(client int, t0, t1 int64, hit, intact bool) {
	if r.tr != nil {
		r.tr.opHit(opGet, client, t0, t1, hit)
	}
	if r.reshardOpen {
		r.windowGet.add(t1 - t0)
		if hit {
			r.windowHits++
		}
	}
	if !r.in(t0) {
		return
	}
	r.attempted++
	r.lookups++
	if hit {
		r.hits++
	}
	if !intact {
		r.failed++
	}
	r.get.add(t1 - t0)
}

// batchLookup records one MGet of n keys, hits of them found and bad of
// those failing their check.
func (r *recorder) batchLookup(client int, t0, t1 int64, n, hits, bad int) {
	if r.tr != nil {
		r.tr.opHit(opMGet, client, t0, t1, hits == n)
	}
	if !r.in(t0) {
		return
	}
	r.attempted++
	r.batchCalls++
	r.lookups += int64(n)
	r.hits += int64(hits)
	r.failed += int64(bad)
	r.mget.add(t1 - t0)
}

// nodeCtr is one memory node's counters at a phase boundary.
type nodeCtr struct {
	verbs            rdma.Stats
	nicBusy, cpuBusy int64
	served           int64
	reclaim          coreCtr
}

// poolCtr is the pool's counters at a phase boundary, by node id.
type poolCtr struct {
	at    int64
	nodes map[int]nodeCtr

	migrated, reshardNs                int64
	promotions, demotions, spreadReads int64
	usedBytes, heapBytes               int64
	weights                            [2]float64 // mean global weight of LRU and LFU
}

// rep is one repetition: a fresh environment, set up and driven once.
type rep struct {
	sh   *shape
	seed int64
	env  *ditto.Env
	cl   *ditto.Cluster      // one-node workloads
	mc   *ditto.MultiCluster // multi-node workloads
	seen map[int]*ditto.Cluster
	t0   int64 // virtual time the workload starts, after the preload

	pop  *zipf // see shape.popularity
	rec  *recorder
	core coreCtr // clients' counters over the window

	snaps       []poolCtr // at every phase boundary, the last at the end
	p1          int       // index in snaps of the first adaptive phase's end
	w0          int       // index in snaps of the window's start
	rebalanceNs int64     // summed virtual time of membership changes

	// Copied from the recorder when the run ends, since the recorder is
	// reused by the next repetition.
	allRequests, attempted, failed int64
}

// at converts a workload time offset to virtual time.
func (r *rep) at(offset int64) int64 { return r.t0 + offset }

// ids lists every memory node the run has seen, in id order.
func (r *rep) ids() []int {
	if r.cl != nil {
		r.seen[0] = r.cl
	} else {
		for i := 0; i < r.mc.NumNodes(); i++ {
			r.seen[r.mc.NodeID(i)] = r.mc.Node(i)
		}
	}
	ids := make([]int, 0, len(r.seen))
	for id := range r.seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// member reports whether node id is still in the pool.
func (r *rep) member(id int) bool {
	if r.cl != nil {
		return true
	}
	for i := 0; i < r.mc.NumNodes(); i++ {
		if r.mc.NodeID(i) == id {
			return true
		}
	}
	return false
}

// snapshot reads every layer's exported counters.
func (r *rep) snapshot() poolCtr {
	s := poolCtr{at: r.env.Now(), nodes: make(map[int]nodeCtr)}
	var wsum [2]float64
	wn := 0
	for _, id := range r.ids() {
		cl := r.seen[id]
		n := cl.MN.Node
		s.nodes[id] = nodeCtr{
			verbs:   n.Stats,
			nicBusy: n.NIC().Busy,
			cpuBusy: n.CPU().Busy,
			served:  cl.ServedReads(),
			reclaim: ctrOf(cl.ReclaimerStats()),
		}
		if !r.member(id) {
			continue
		}
		s.usedBytes += int64(cl.MN.UsedBytes)
		s.heapBytes += int64(cl.MN.HeapBytes())
		if cl.WeightSvc != nil {
			g := cl.WeightSvc.Global()
			wsum[0] += g[0]
			wsum[1] += g[1]
			wn++
		}
	}
	if wn > 0 {
		s.weights = [2]float64{wsum[0] / float64(wn), wsum[1] / float64(wn)}
	}
	if mc := r.mc; mc != nil {
		s.migrated, s.reshardNs = mc.MigratedKeys, mc.ReshardNs
		s.promotions, s.demotions, s.spreadReads = mc.Promotions, mc.Demotions, mc.SpreadReads
	}
	return s
}

// loaders is how many processes preload the cache, each with MSet
// batches of loadBatch keys.
const (
	loaders   = 16
	loadBatch = 32
)

// setup builds the cluster of sh and preloads its most popular keys.
func setup(sh *shape, seed int64, rec *recorder, tr *tracer) *rep {
	r := &rep{sh: sh, seed: seed, env: ditto.NewEnv(seed), seen: map[int]*ditto.Cluster{}, rec: rec}
	r.pop = sh.popularity()
	opts := sh.options()
	if sh.nodes == 0 {
		r.cl = ditto.NewCluster(r.env, opts)
		if sh.reclaim {
			r.cl.EnableBackgroundReclaim(0, 0)
		}
	} else {
		r.mc = ditto.NewMultiCluster(r.env, sh.nodes, opts)
		if sh.replicate {
			r.mc.EnableHotKeyReplication(3, 32, 512)
		}
	}
	for l := 0; l < loaders; l++ {
		l := l
		r.env.Go("loader", func(p *ditto.Proc) {
			c := r.connect(p)
			pairs := make([]ditto.KV, 0, loadBatch)
			for rank := l; rank < sh.preload; rank += loaders {
				k := scatter(uint64(rank), sh.keys)
				key := putKey(make([]byte, keyLen), k)
				pairs = append(pairs, ditto.KV{Key: key, Value: putValue(make([]byte, valueLen), k, 0)})
				if len(pairs) == loadBatch {
					c.mset(pairs)
					pairs = pairs[:0]
				}
			}
			if len(pairs) > 0 {
				c.mset(pairs)
			}
		})
	}
	r.env.Run()
	r.t0 = r.env.Now()
	rec.reset(r.at(sh.warmNs), r.at(sh.endNs), tr)
	return r
}

// connect opens a ditto client for process p.
func (r *rep) connect(p *ditto.Proc) cache {
	if r.cl != nil {
		return single{r.cl.NewClient(p)}
	}
	return multi{r.mc.NewClient(p)}
}

// spawn starts virtual client id.
func (r *rep) spawn(id int, batch bool) {
	v := newVclient(id, r.seed, r.sh)
	r.env.Go("client", func(p *ditto.Proc) {
		v.c = r.connect(p)
		v.loop(r, p, batch, r.at(r.sh.endNs), 0)
	})
}

// phase is a named stretch of the workload's timeline.
type phase struct {
	name string
	at   int64 // offset from the workload's start
}

// phases lists the timeline; adaptive weights are read at the end of the
// phase named by p1 and at the end of the run.
func (sh *shape) phases() (ph []phase, p1 string) {
	if sh.elastic() {
		return []phase{
			{"warmup", 0}, {"steady", sh.warmNs}, {"scale-out", sh.addNs},
			{"more-clients", sh.growNs}, {"shift", sh.shiftNs}, {"scale-in", sh.removeNs},
		}, "shift"
	}
	mid := (sh.warmNs + sh.endNs) / 2
	return []phase{{"warmup", 0}, {"measure-1", sh.warmNs}, {"measure-2", mid}}, "measure-2"
}

// schedule registers the clients, the phase marker, and for elastic the
// administrator that changes membership and load.
func (r *rep) schedule() {
	sh := r.sh
	for i := 0; i < sh.clients; i++ {
		r.spawn(i, i < sh.batchClients)
	}
	ph, p1 := sh.phases()
	r.env.Go("phases", func(p *ditto.Proc) {
		for _, x := range ph {
			p.SleepUntil(r.at(x.at))
			if x.name == p1 {
				r.p1 = len(r.snaps)
			}
			if x.at == sh.warmNs {
				r.w0 = len(r.snaps)
			}
			r.snaps = append(r.snaps, r.snapshot())
			if r.rec.tr != nil {
				r.rec.tr.beginPhase(x.name, p.Now())
			}
		}
		p.SleepUntil(r.at(sh.endNs))
		r.snaps = append(r.snaps, r.snapshot())
		if r.rec.tr != nil {
			r.rec.tr.beginPhase("", p.Now())
		}
	})
	if sh.elastic() {
		r.env.Go("admin", r.administer)
	}
}

// administer runs elastic's membership and load changes.
func (r *rep) administer(p *ditto.Proc) {
	sh, tr := r.sh, r.rec.tr
	change := func(name string, fn func()) {
		t0 := p.Now()
		parent := int32(-1)
		if tr != nil {
			parent = tr.phase
		}
		fn()
		t1 := p.Now()
		r.rec.reshardOpen = true
		r.mc.WaitReshard(p)
		r.rec.reshardOpen = false
		r.rebalanceNs += p.Now() - t0
		if tr != nil {
			tr.admin(name, parent, t0, t1)
			tr.admin("WaitReshard", parent, t1, p.Now())
		}
	}
	// Each step waits one more yield at its time, so that the phase marker
	// due at the same instant opens the phase first.
	p.SleepUntil(r.at(sh.addNs))
	p.Sleep(0)
	change("AddNode", func() { r.mc.AddNode() })
	p.SleepUntil(r.at(sh.growNs))
	p.Sleep(0)
	for i := 0; i < sh.clients; i++ {
		r.spawn(sh.clients+i, false)
	}
	p.SleepUntil(r.at(sh.removeNs))
	p.Sleep(0)
	change("RemoveNode", func() { r.mc.RemoveNode(r.mc.NodeID(0)) })
}

// host is what one repetition cost the host.
type host struct {
	setupS     float64 // CPU seconds
	nsPerOp    float64 // CPU ns
	allocPerOp float64
	heapMB     float64
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuNs returns the CPU time the process has used, user and system. Host
// costs are CPU time rather than wall time, so that a run is not charged
// for time other programs on the machine hold the CPU.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runRep sets up and drives one repetition of sh under seed, recording
// into rec, traced when tr is not nil.
func runRep(sh *shape, seed int64, rec *recorder, tr *tracer) (*rep, host) {
	var h host
	base := liveHeap()
	c0 := cpuNs()
	r := setup(sh, seed, rec, tr)
	h.setupS = float64(cpuNs()-c0) / 1e9

	r.schedule()
	m0 := mallocs()
	c1 := cpuNs()
	r.env.Run()
	cpu := cpuNs() - c1
	r.allRequests, r.attempted, r.failed = rec.allRequests, rec.attempted, rec.failed
	h.allocPerOp = float64(mallocs()-m0) / float64(rec.allRequests)
	h.nsPerOp = float64(cpu) / float64(rec.allRequests)
	h.heapMB = float64(int64(liveHeap())-int64(base)) / (1 << 20)
	return r, h
}

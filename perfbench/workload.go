package main

import (
	"math/rand"

	"ditto"
)

// missPenalty is the backing-store fetch a look-aside client sleeps on a
// miss before it fills the key (the paper's 500 µs, Fig 16).
const missPenalty = 500 * ditto.Microsecond

// shape is one workload's fixed parameters. Every size is in keys or
// objects of valueLen-byte values; every time is virtual.
type shape struct {
	name string

	nodes     int // memory nodes; 0 runs a one-node ditto.Cluster
	keys      int // key space
	cacheObjs int // cache capacity, in objects
	preload   int // most popular keys loaded before the run

	theta        float64 // zipf skew of key popularity
	clients      int     // closed-loop virtual clients at the start
	batchClients int     // of those, how many issue MGet/MSet windows
	batch        int     // keys per MGet/MSet
	setPct       int     // direct Sets, percent of requests
	delPct       int     // Deletes, percent of requests
	lookAside    bool    // a Get miss sleeps missPenalty, then Sets

	msgSvcNs  int64 // RNIC service time per message
	locSlots  int   // per-client location cache (0: off)
	replicate bool  // hot-key replication, as EnableHotKeyReplication(3, 32, 512)
	reclaim   bool  // background reclaimer

	// weightBatch overrides the adaptive weight-update batch (paper: 100
	// regrets per sync RPC), so that every per-node client syncs within a
	// run whose regrets are split over many clients and nodes.
	weightBatch int

	warmNs, endNs int64 // measured window is [warmNs, endNs)

	// elastic only (zero elsewhere): membership changes, client doubling,
	// and the switch from recency-friendly to frequency-friendly
	// popularity.
	addNs, growNs, shiftNs, removeNs int64

	pop *zipf // built on first use (see popularity)
}

var shapes = []*shape{
	{
		name:  "read-hot",
		nodes: 4, keys: 100_000, cacheObjs: 150_000, preload: 100_000,
		theta: 0.99, clients: 32, batchClients: 8, batch: 16, setPct: 5,
		msgSvcNs: 300, locSlots: 4096, replicate: true,
		warmNs: 2 * ditto.Millisecond, endNs: 200 * ditto.Millisecond,
	},
	{
		name:  "churn-evict",
		nodes: 0, keys: 60_000, cacheObjs: 20_000, preload: 20_000,
		theta: 0.9, clients: 64, setPct: 20, delPct: 5, lookAside: true,
		msgSvcNs: 300, reclaim: true,
		warmNs: 50 * ditto.Millisecond, endNs: 650 * ditto.Millisecond,
	},
	{
		name:  "elastic",
		nodes: 2, keys: 40_000, cacheObjs: 10_000, preload: 10_000,
		clients: 64, lookAside: true, setPct: 20, delPct: 5,
		msgSvcNs: 500, weightBatch: 10,
		warmNs: 10 * ditto.Millisecond, endNs: 440 * ditto.Millisecond,
		addNs: 20 * ditto.Millisecond, growNs: 105 * ditto.Millisecond,
		shiftNs: 120 * ditto.Millisecond, removeNs: 130 * ditto.Millisecond,
	},
}

// elastic reports whether the shape changes membership and popularity
// mid-run.
func (sh *shape) elastic() bool { return sh.shiftNs > 0 }

// popularity returns the shape's zipf over popularity ranks: over the
// whole key space, or for elastic over its frequency phase's hot set (12%
// of the keys, skew 0.95).
func (sh *shape) popularity() *zipf {
	if sh.pop == nil {
		if sh.elastic() {
			sh.pop = newZipf(sh.keys*12/100, 0.95)
		} else {
			sh.pop = newZipf(sh.keys, sh.theta)
		}
	}
	return sh.pop
}

func shapeNamed(name string) *shape {
	for _, s := range shapes {
		if s.name == name {
			return s
		}
	}
	return nil
}

// options builds the cluster options of a shape. Objects take one
// 320-byte block each (24 B header + extension + key + value, rounded).
func (sh *shape) options() ditto.Options {
	opts := ditto.DefaultOptions(sh.cacheObjs, sh.cacheObjs*320)
	opts.Fabric.MsgSvc = sh.msgSvcNs
	opts.LocCacheSlots = sh.locSlots
	if sh.weightBatch > 0 {
		opts.BatchSize = sh.weightBatch
	}
	return opts
}

// vclient is one closed-loop virtual client. Its buffers are allocated
// once, so the loop itself allocates nothing.
type vclient struct {
	id  int
	rng *rand.Rand
	c   cache

	key, val, got []byte
	keys          [][]byte
	idx           []uint64
	vals          [][]byte
	pairs         []ditto.KV
	ver           uint64

	// elastic's recency-friendly generator: the client's recently used
	// keys (a ring) and its sequential-scan cursor.
	recent []uint64
	rn     int
	scan   uint64
}

func newVclient(id int, seed int64, sh *shape) *vclient {
	v := &vclient{
		id:  id,
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		key: make([]byte, keyLen),
		val: make([]byte, valueLen),
		got: make([]byte, 0, valueLen),
		ver: uint64(id+1) << 32,
	}
	if sh.batch > 0 {
		v.keys = make([][]byte, sh.batch)
		v.idx = make([]uint64, sh.batch)
		v.vals = make([][]byte, sh.batch)
		v.pairs = make([]ditto.KV, sh.batch)
		for i := range v.keys {
			v.keys[i] = make([]byte, keyLen)
			v.vals[i] = make([]byte, valueLen)
		}
	}
	if sh.elastic() {
		v.recent = make([]uint64, recentWindow(sh)*2)
		v.scan = uint64(id * sh.keys / sh.clients)
	}
	return v
}

// recentWindow is how many of its most recent keys an elastic client's
// bursts re-touch.
func recentWindow(sh *shape) int { return sh.keys / 12 / sh.clients }

// nextKey draws the index of the next key the client touches at virtual
// time now.
func (v *vclient) nextKey(r *rep, now int64) uint64 {
	sh := r.sh
	if !sh.elastic() {
		return scatter(r.pop.next(v.rng), sh.keys)
	}
	var k uint64
	x := v.rng.Float64()
	if now-r.t0 < sh.shiftNs {
		// Recency-friendly: bursts over recently used keys, some scanning.
		switch {
		case x < 0.80 && v.rn > 0:
			w := len(v.recent) / 2
			if w > v.rn {
				w = v.rn
			}
			k = v.recent[(v.rn-1-v.rng.Intn(w))%len(v.recent)]
		case x < 0.95:
			k = v.scan % uint64(sh.keys)
			v.scan++
		default:
			k = uint64(v.rng.Intn(sh.keys))
		}
	} else {
		// Frequency-friendly: a stable hot set buried in scans.
		switch {
		case x < 0.50:
			k = scatter(r.pop.next(v.rng), sh.keys)
		case x < 0.95:
			k = v.scan % uint64(sh.keys)
			v.scan++
		default:
			k = uint64(v.rng.Intn(sh.keys))
		}
	}
	if v.rn == 0 || v.recent[(v.rn-1)%len(v.recent)] != k {
		v.recent[v.rn%len(v.recent)] = k
		v.rn++
	}
	return k
}

// loop runs the client until virtual time end, and on past it while a
// reshard is migrating keys, so that every reshard completes under load;
// or, when limit > 0, for limit requests (the stub-cache probe, where
// virtual time stands still). The client's ditto counters are added to
// the repetition's over the measured window only.
func (v *vclient) loop(r *rep, p *ditto.Proc, batchClient bool, end int64, limit int) {
	sh, rec := r.sh, r.rec
	var first, last coreCtr
	opened, closed := false, false
	for n := 0; (p.Now() < end || rec.reshardOpen) && (limit == 0 || n < limit); n++ {
		if !opened && p.Now() >= rec.from {
			opened, first = true, r.clientCtr(v)
		}
		if !closed && p.Now() >= rec.to {
			closed, last = true, r.clientCtr(v)
		}
		switch {
		case batchClient:
			v.window(r, p)
		case sh.lookAside:
			v.lookAsideReq(r, p)
		default:
			v.singleReq(r, p)
		}
	}
	if !opened {
		first = r.clientCtr(v)
	}
	if !closed {
		last = r.clientCtr(v)
	}
	r.core.add(last, 1)
	r.core.add(first, -1)
}

// singleReq issues one Get or TrySet.
func (v *vclient) singleReq(r *rep, p *ditto.Proc) {
	k := v.nextKey(r, p.Now())
	key := putKey(v.key, k)
	if v.rng.Intn(100) < r.sh.setPct {
		v.set(r, p, key, k)
		return
	}
	v.get(r, p, key, k)
	r.rec.request(p.Now(), 1)
}

// lookAsideReq issues one request of an application using the cache
// look-aside: a Delete, a direct Set, or a Get that on a miss fetches
// from the backing store and fills the cache.
func (v *vclient) lookAsideReq(r *rep, p *ditto.Proc) {
	k := v.nextKey(r, p.Now())
	key := putKey(v.key, k)
	x := v.rng.Intn(100)
	switch {
	case x < r.sh.delPct:
		t0 := p.Now()
		v.c.del(key)
		r.rec.op(opDelete, v.id, t0, p.Now(), false)
	case x < r.sh.delPct+r.sh.setPct:
		v.set(r, p, key, k)
		return
	default:
		if !v.get(r, p, key, k) {
			p.Sleep(missPenalty)
			v.set(r, p, key, k)
			return
		}
	}
	r.rec.request(p.Now(), 1)
}

func (v *vclient) get(r *rep, p *ditto.Proc, key []byte, k uint64) bool {
	t0 := p.Now()
	val, ok := v.c.get(v.got[:0], key)
	r.rec.lookup(v.id, t0, p.Now(), ok, !ok || checkValue(val, k))
	return ok
}

// set writes the next version of key k and completes the request.
func (v *vclient) set(r *rep, p *ditto.Proc, key []byte, k uint64) {
	v.ver++
	t0 := p.Now()
	err := v.c.set(key, putValue(v.val, k, v.ver))
	r.rec.op(opSet, v.id, t0, p.Now(), err != nil)
	r.rec.request(p.Now(), 1)
}

// window issues one MGet, or with probability setPct one MSet, of
// sh.batch distinct keys.
func (v *vclient) window(r *rep, p *ditto.Proc) {
	n := r.sh.batch
	for i := 0; i < n; {
		k := v.nextKey(r, p.Now())
		if !contains(v.idx[:i], k) {
			v.idx[i] = k
			putKey(v.keys[i], k)
			i++
		}
	}
	t0 := p.Now()
	if v.rng.Intn(100) < r.sh.setPct {
		for i := 0; i < n; i++ {
			v.ver++
			v.pairs[i] = ditto.KV{Key: v.keys[i], Value: putValue(v.vals[i], v.idx[i], v.ver)}
		}
		v.c.mset(v.pairs[:n])
		r.rec.op(opMSet, v.id, t0, p.Now(), false)
	} else {
		vals, oks := v.c.mget(v.keys[:n])
		hits, bad := 0, 0
		for i := 0; i < n; i++ {
			if oks[i] {
				hits++
				if !checkValue(vals[i], v.idx[i]) {
					bad++
				}
			}
		}
		r.rec.batchLookup(v.id, t0, p.Now(), n, hits, bad)
	}
	r.rec.request(p.Now(), n)
}

// coreCtr is the part of a ditto client's counters the layer metrics use.
type coreCtr struct {
	gets, hits, misses, sets    int64
	evictions, regrets, retries int64
	sampled, resamples, stallNs int64
	specHits, specFallbacks     int64
}

func ctrOf(s ditto.Stats) coreCtr {
	return coreCtr{
		gets: s.Gets, hits: s.Hits, misses: s.Misses, sets: s.Sets,
		evictions: s.Evictions, regrets: s.Regrets, retries: s.SetRetries,
		sampled: s.SampledSlots, resamples: s.EvictResamples, stallNs: s.WriteStallNs,
		specHits: s.SpecGetHits, specFallbacks: s.SpecGetFallbacks,
	}
}

func (a *coreCtr) add(b coreCtr, sign int64) {
	a.gets += sign * b.gets
	a.hits += sign * b.hits
	a.misses += sign * b.misses
	a.sets += sign * b.sets
	a.evictions += sign * b.evictions
	a.regrets += sign * b.regrets
	a.retries += sign * b.retries
	a.sampled += sign * b.sampled
	a.resamples += sign * b.resamples
	a.stallNs += sign * b.stallNs
	a.specHits += sign * b.specHits
	a.specFallbacks += sign * b.specFallbacks
}

// clientStats reads a client's aggregated ditto counters (zero for the
// stub cache).
func clientStats(c cache) ditto.Stats {
	switch c := c.(type) {
	case single:
		return c.c.Stats
	case multi:
		return c.m.Stats()
	}
	return ditto.Stats{}
}

func (r *rep) clientCtr(v *vclient) coreCtr { return ctrOf(clientStats(v.c)) }

func contains(xs []uint64, x uint64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

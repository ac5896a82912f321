package core

import (
	"bytes"
	"fmt"

	"ditto/internal/adaptive"
	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/fccache"
	"ditto/internal/hashtable"
	"ditto/internal/history"
	"ditto/internal/loccache"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// getRetries bounds re-reads when a stale pointer is observed under
// concurrent updates.
const getRetries = 3

// evictAttempts bounds resampling before giving up on one eviction round
// (generous: under heavy multi-client thrash, CAS losses burn attempts).
const evictAttempts = 512

// Stats are per-client operation counters.
type Stats struct {
	Gets, Sets, Deletes int64
	Hits, Misses        int64
	Evictions           int64
	Regrets             int64
	SetRetries          int64
	BucketEvictions     int64

	// Eviction observability. SampledSlots counts slots fetched by
	// eviction sample READs (SampledSlots/Evictions is the sampled-slots-
	// per-eviction figure); EvictResamples counts eviction attempts that
	// found no live candidate or lost the victim CAS and had to resample.
	SampledSlots   int64
	EvictResamples int64

	// WriteStallTicks counts the bounded stall rounds a write's
	// allocOrEvict slept waiting for the background reclaimer (zero when
	// none is enabled). WriteStallNs is the total virtual time writes
	// spent beyond a clean allocation — reclaimer stall ticks plus any
	// inline eviction verbs — the eviction-stall time of the churn bench.
	WriteStallTicks int64
	WriteStallNs    int64

	// ReclaimerWakeups counts pressure wakeups; only the background
	// reclaimer's own client (Cluster.ReclaimerStats) increments it.
	ReclaimerWakeups int64

	// ShedOps counts operations overload control rejected up front
	// (TryMSet on an over-quota tenant while the node was overloaded);
	// no verbs were issued for them.
	ShedOps int64

	// Speculative-Get observability (Options.LocCacheSlots > 0).
	// SpecGetHits counts Gets served by ONE speculative READ of a
	// location-cache hint that validated in place; SpecGetFallbacks counts
	// hinted Gets whose speculative image failed validation (block reused,
	// freed, lease lapsed, …) and fell back to the ordinary bucket walk —
	// those Gets paid one extra READ. Unhinted Gets touch neither counter.
	SpecGetHits      int64
	SpecGetFallbacks int64
}

// Add folds other's counters into s — the one summation every
// aggregator (MultiClient.Stats, the bench harnesses) shares, so a new
// counter cannot be silently dropped from one of them.
func (s *Stats) Add(other Stats) {
	s.Gets += other.Gets
	s.Sets += other.Sets
	s.Deletes += other.Deletes
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Regrets += other.Regrets
	s.SetRetries += other.SetRetries
	s.BucketEvictions += other.BucketEvictions
	s.SampledSlots += other.SampledSlots
	s.EvictResamples += other.EvictResamples
	s.WriteStallTicks += other.WriteStallTicks
	s.WriteStallNs += other.WriteStallNs
	s.ReclaimerWakeups += other.ReclaimerWakeups
	s.ShedOps += other.ShedOps
	s.SpecGetHits += other.SpecGetHits
	s.SpecGetFallbacks += other.SpecGetFallbacks
}

// SpecGetHitRate returns SpecGetHits/Gets — the fraction of Gets served
// in one RTT by a validated speculative read. Denominator is all Gets
// (not just hinted ones): the rate answers "how much of the read traffic
// went one-RTT", the number the benches report.
func (s *Stats) SpecGetHitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.SpecGetHits) / float64(s.Gets)
}

// HitRate returns Hits/(Hits+Misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Client is one Ditto client: the library instance an application links
// against on a compute node. It must run inside its own sim process.
type Client struct {
	cl    *Cluster
	p     *sim.Proc
	ep    *rdma.Endpoint
	ht    *hashtable.Handle
	alloc *memnode.Alloc
	hist  *history.Client
	adapt *adaptive.Client
	fc    *fccache.Cache

	experts []cachealgo.Algorithm
	extOff  []int // offset of each expert's extension segment

	// runner owns the pooled executor scratch; served is this client's
	// shard of the cluster's ServedReads counter. meta8 backs the
	// DisableSFHT ablation's per-hit metadata WRITE (safe to reuse:
	// WriteAsync applies before returning). extMeta is the scratch
	// Metadata handed to expert Init/UpdateExt calls — passing a local
	// through the interface forces a heap allocation per call, and the
	// contract says experts must not retain the pointer.
	runner  exec.Runner
	served  *stats.CounterCell
	meta8   [8]byte
	extMeta cachealgo.Metadata

	// Plan free lists and in-flight batch scratch (see pool.go). runOps
	// carries one M-operation's plans; runEv the eviction batches —
	// separate because inline eviction can fire while an M-operation's
	// doorbell round is mid-absorb.
	freeGet   []*getPlan
	freeSet   []*setPlan
	freeDel   []*delPlan
	freeEv    []*evictPlan
	freeSpec  []*specGetPlan
	getPlans  []*getPlan
	setPlans  []*setPlan
	delPlans  []*delPlan
	evPlans   []*evictPlan
	specPlans []*specGetPlan
	runOps    []exec.Plan
	runEv     []exec.Plan
	specIdx   []int // key index each in-flight spec plan serves (mget)
	getIdx    []int // key index each in-flight get plan serves (mget)

	// Location cache behind one-RTT speculative Gets (nil unless
	// Options.LocCacheSlots > 0; see internal/loccache). verBase/verSeq
	// generate this client's object incarnation stamps: verBase is the
	// cluster-assigned 16-bit client id pre-shifted into stamp position,
	// verSeq the per-staging sequence — deterministic counters, no RNG
	// draw, so enabling stamps never perturbs randomness order. stamp8 is
	// the reusable all-zero image freeStampAsync writes over a freed
	// block's tenant+ver bytes (safe to share: WriteAsync applies before
	// returning, and the stamp is always zero).
	loc     *loccache.Cache
	verBase uint64
	verSeq  uint32
	stamp8  [8]byte

	// Stats accumulates this client's counters.
	Stats Stats

	// OnOp, when non-nil, observes every completed Get/Set with its
	// virtual-time latency; benchmark harnesses install collectors here.
	OnOp func(op OpKind, latency int64, hit bool)

	// onHit, when non-nil, observes every hit with the key's owning
	// tenant and logical frequency (noteHit's convention: remote snapshot
	// + pending FC-cache delta + this hit). MultiClient installs it as
	// the hot-key promotion signal; the hook must not issue verbs (it
	// runs inside the hit path).
	onHit func(key []byte, tenant TenantID, freq uint64)

	// Tenancy (see tenancy.go): the bound tenant stamped into objects
	// this client stores, the client's shard of the cluster's per-tenant
	// usage counter, and the pending lease expiry SetTTL arms for the
	// next Set (0 = no lease).
	tenant     TenantID
	tcell      *stats.TenantCell
	nextExpiry int64
}

// OpKind labels operations for OnOp.
type OpKind int

// Operation kinds reported to OnOp.
const (
	OpGet OpKind = iota
	OpSet
)

// NewClient creates a Ditto client for process p. Each application thread
// gets its own client, matching the paper's one-client-per-core model.
func (cl *Cluster) NewClient(p *sim.Proc) *Client {
	ep := rdma.NewEndpoint(cl.MN.Node, p)
	c := &Client{
		cl:     cl,
		p:      p,
		ep:     ep,
		ht:     hashtable.NewHandle(cl.Layout, ep),
		alloc:  memnode.NewAlloc(cl.MN, ep),
		hist:   history.NewClient(ep, hashtable.NewHandle(cl.Layout, ep), cl.histSize),
		served: cl.servedReads.NewCell(),
		tcell:  cl.tenantUsage.NewCell(),
	}
	cl.verClients++
	c.verBase = uint64(cl.verClients) << 32
	if cl.specMode() {
		c.loc = loccache.New(cl.opts.LocCacheSlots)
	}
	off := 0
	for _, name := range cl.opts.Experts {
		a, err := cachealgo.New(name)
		if err != nil {
			//dittolint:allow typederr (config validation: unknown expert name, caught at client construction)
			panic(fmt.Sprintf("core: %v", err))
		}
		c.experts = append(c.experts, a)
		c.extOff = append(c.extOff, off)
		off += a.ExtSize()
	}
	if cl.Adaptive() {
		c.adapt = adaptive.NewClient(adaptive.Config{
			NumExperts:   len(c.experts),
			LearningRate: cl.opts.LearningRate,
			HistorySize:  cl.histSize,
			BatchSize:    cl.opts.BatchSize,
			Eager:        cl.opts.EagerWeightSync,
		}, ep)
	}
	c.fc = fccache.New(cl.opts.FCCacheBytes, cl.opts.FCThreshold, c.ht.FAAFreqAsync)
	return c
}

// Weights exposes the client's local expert weights (nil when adaptive
// caching is off).
func (c *Client) Weights() adaptive.Weights {
	if c.adapt == nil {
		return nil
	}
	return c.adapt.Weights()
}

// Proc returns the owning sim process.
func (c *Client) Proc() *sim.Proc { return c.p }

// Close flushes client-side buffered state (FC cache deltas, pending
// weight penalties).
func (c *Client) Close() {
	c.fc.FlushAll()
	if c.adapt != nil {
		c.adapt.Sync()
	}
}

// ----------------------------------------------------------------- Get ----

// Get fetches the value cached under key, returning ok=false on a miss.
// Critical path: one READ of the key's bucket plus one READ of the object
// (a second bucket READ only on overflow), with metadata maintenance off
// the critical path (§4.1). The verb sequence is the getPlan in plan.go —
// the same plan MGet runs as doorbell batches — traversed serially here.
// The returned value is a fresh copy; use GetAppend to reuse a buffer.
func (c *Client) Get(key []byte) ([]byte, bool) { return c.get(key, false, nil) }

// GetAppend is Get appending the value to dst and returning the extended
// slice — the allocation-free form for callers that reuse a buffer
// across operations.
func (c *Client) GetAppend(dst, key []byte) ([]byte, bool) { return c.get(key, false, dst) }

// getProbe is a Get whose miss is silent: no counters, no regret
// collection, no observer report. MultiClient's forwarding window probes
// with it so a key sitting on its old owner does not record a phantom
// miss (and adaptive penalties) on the new owner for every forwarded
// hit. A probe that hits counts as a normal Get.
func (c *Client) getProbe(key []byte) ([]byte, bool) { return c.get(key, true, nil) }

// get runs the plan and, on a hit, appends the value to dst. The copy
// happens before the plan is released: pl.dec.value is a view into the
// plan's pooled object buffer.
//
// With a location cache enabled, a hinted key first tries the one-RTT
// speculative path: one READ of the hinted block, validated in place by
// specGetPlan (plan.go). A validated hit is a normal hit — same
// counters, same metadata maintenance, same observer report — served in
// a single round trip. Any validation failure silently drops the hint
// and falls through to the ordinary bucket walk below, whose own hit
// path re-records a fresh hint; correctness never depends on the hint.
func (c *Client) get(key []byte, probe bool, dst []byte) ([]byte, bool) {
	start := c.p.Now()
	if c.loc != nil {
		if h, ok := c.loc.Lookup(key); ok {
			spl := c.acquireSpecGetPlan(key, h)
			c.runner.Serial.Run(spl)
			if spl.ok {
				c.Stats.SpecGetHits++
				c.touchOnSpecHit(spl)
				c.Stats.Gets++
				c.Stats.Hits++
				c.served.Inc()
				val := append(dst, spl.dec.value...)
				c.releaseSpecGetPlan(spl)
				c.report(OpGet, start, true)
				return val, true
			}
			c.Stats.SpecGetFallbacks++
			c.loc.Drop(key)
			c.releaseSpecGetPlan(spl)
		}
	}
	var pl *getPlan
	for attempt := 0; attempt < getRetries; attempt++ {
		if pl == nil {
			pl = c.acquireGetPlan(key)
		} else {
			pl.reset(c, key)
		}
		c.runner.Serial.Run(pl)
		if pl.hit {
			freq := c.touchOnHit(pl.slot, pl.dec, len(key))
			c.noteLocation(key, pl.slot, pl.dec, freq)
			c.Stats.Gets++
			c.Stats.Hits++
			c.served.Inc()
			val := append(dst, pl.dec.value...)
			c.releaseGetPlan(pl)
			c.report(OpGet, start, true)
			return val, true
		}
		if !pl.stale {
			break // a clean miss; stale snapshots retry (bounded)
		}
	}

	if probe {
		c.releaseGetPlan(pl)
		return dst, false
	}
	c.Stats.Gets++
	c.Stats.Misses++
	c.served.Inc()
	if c.adapt != nil {
		c.collectRegrets(pl.histMatches)
		if c.cl.opts.DisableLWH {
			// Conventional design: a separate remote hash index over the
			// history must be probed on every miss.
			c.probeConventionalIndex()
		}
	}
	c.releaseGetPlan(pl)
	c.report(OpGet, start, false)
	return dst, false
}

// noteHit buffers this hit's +1 in the FC cache and returns the key's
// logical frequency including it. The pending delta MUST be read before
// fc.Add: the remote snapshot s.Freq predates every buffered increment,
// so the logical count is snapshot + buffered-before-this-hit + 1. Adding
// first would fold the current hit into the pending delta and count it
// twice whenever it was buffered, biasing LFU-family expert priorities
// upward on exactly the keys the FC cache combines hardest.
func (c *Client) noteHit(s hashtable.Slot, keyLen int) uint64 {
	freq := s.Freq + 1 + c.fc.PendingDelta(s.Addr)
	c.fc.Add(s.Addr, keyLen)
	return freq
}

// touchOnHit applies the framework's metadata maintenance after a hit:
// the stateful freq through the FC cache (combined RDMA_FAA), the
// stateless last_ts with one asynchronous RDMA_WRITE, and any expert
// extension metadata with one more asynchronous RDMA_WRITE to the object.
// It returns the hit's logical frequency (noteHit's convention) so the
// caller can seed a location-cache hint without recomputing it.
func (c *Client) touchOnHit(s hashtable.Slot, dec decodedObject, keyLen int) uint64 {
	now := c.p.Now()
	freq := c.noteHit(s, keyLen)
	c.ht.TouchLastTs(s.Addr, now)
	if c.cl.opts.DisableSFHT {
		// Metadata scattered with the object: stateless fields cannot be
		// grouped into a single WRITE. meta8 is reusable because the
		// async WRITE applies before returning.
		c.metaWriteAsync(s.Atomic.Pointer(), c.meta8[:])
	}
	if len(dec.ext) > 0 {
		meta := &c.extMeta
		*meta = cachealgo.Metadata{
			Size:     s.Atomic.SizeBytes(),
			InsertTs: s.InsertTs,
			LastTs:   s.LastTs,
			Freq:     freq,
		}
		for i, a := range c.experts {
			n := a.ExtSize()
			if n == 0 {
				continue
			}
			meta.Ext = dec.ext[c.extOff[i] : c.extOff[i]+n]
			a.UpdateExt(meta, now)
		}
		c.metaWriteAsync(s.Atomic.Pointer()+objHeader, dec.ext)
	}
	if c.onHit != nil {
		c.onHit(dec.key, dec.tenant, freq)
	}
	return freq
}

// touchOnSpecHit is touchOnHit for a validated speculative hit: the same
// maintenance — FC-cache freq buffering, async last_ts touch, expert
// extension updates, the hot-key promotion hook — driven from the hint's
// slot-metadata snapshot instead of a fresh bucket READ (the whole point
// is not to have one). The frequency convention is hint.Freq + 1: the
// hint's Freq already folded the pending FC delta when it was recorded
// off a full bucket walk, so re-adding PendingDelta here would double
// count; between full walks the estimate is blind to other clients'
// accesses, the same fidelity class as the FC cache itself. The
// refreshed hint keeps Addr/Ver — a validated hit proves them current.
func (c *Client) touchOnSpecHit(sp *specGetPlan) {
	now := c.p.Now()
	h := &sp.hint
	freq := h.Freq + 1
	c.fc.Add(h.SlotAddr, len(sp.key))
	c.ht.TouchLastTs(h.SlotAddr, now)
	if c.cl.opts.DisableSFHT {
		c.metaWriteAsync(h.Addr, c.meta8[:])
	}
	if len(sp.dec.ext) > 0 {
		meta := &c.extMeta
		*meta = cachealgo.Metadata{
			Size:     h.Len,
			InsertTs: h.InsertTs,
			LastTs:   h.LastTs,
			Freq:     freq,
		}
		for i, a := range c.experts {
			n := a.ExtSize()
			if n == 0 {
				continue
			}
			meta.Ext = sp.dec.ext[c.extOff[i] : c.extOff[i]+n]
			a.UpdateExt(meta, now)
		}
		c.metaWriteAsync(h.Addr+objHeader, sp.dec.ext)
	}
	h.Freq = freq
	h.LastTs = now
	c.loc.Record(sp.key, *h)
	if c.onHit != nil {
		c.onHit(sp.dec.key, sp.dec.tenant, freq)
	}
}

// noteLocation records (or refreshes) key's location-cache hint off a
// full bucket-walk hit: the slot's published pointer and size class, the
// image's incarnation stamp, and the slot-metadata snapshot a future
// speculative hit maintains metadata from. Hints are recorded on EVERY
// full-plan hit — main bucket or overflow — so repeat reads of
// overflowed keys reach one RTT too. Pre-stamp images (ver 0: written
// by a binary predating the stamp, impossible in-sim but cheap to
// guard) are never hinted; ver 0 is the cleared/freed marker.
func (c *Client) noteLocation(key []byte, s hashtable.Slot, dec decodedObject, freq uint64) {
	if c.loc == nil || dec.ver == 0 {
		return
	}
	c.loc.Record(key, loccache.Hint{
		Addr:     s.Atomic.Pointer(),
		Len:      s.Atomic.SizeBytes(),
		Ver:      dec.ver,
		Tenant:   uint8(dec.tenant),
		SlotAddr: s.Addr,
		InsertTs: s.InsertTs,
		LastTs:   c.p.Now(),
		Freq:     freq,
	})
}

// noteSetLocation records the hint for a setDone outcome: the writer
// knows the block it just published (address, size class, stamp) without
// any extra verbs, so its own next Get of the key starts one-RTT. For an
// out-of-place update the slot keeps its insert timestamp and running
// frequency; a fresh insert starts at freq 1.
func (c *Client) noteSetLocation(pl *setPlan) {
	if c.loc == nil {
		return
	}
	h := loccache.Hint{
		Addr:     pl.addr,
		Len:      pl.want.SizeBytes(),
		Ver:      pl.ver,
		Tenant:   uint8(pl.tenant),
		SlotAddr: pl.slotAddr,
		InsertTs: pl.now,
		LastTs:   pl.now,
		Freq:     1,
	}
	if pl.mode == pUpdate && !pl.expUpd {
		h.InsertTs = pl.updSlot.InsertTs
		h.Freq = pl.updSlot.Freq + 1
	}
	c.loc.Record(pl.key, h)
}

// nextVer returns the next incarnation stamp for an image this client
// stages: the cluster-assigned client id (verBase) concatenated with a
// per-staging sequence. Unique across the cluster (object.go), never 0,
// and drawn from plain counters so determinism and randomness order are
// untouched.
func (c *Client) nextVer() uint64 {
	c.verSeq++
	return c.verBase | uint64(c.verSeq)
}

// collectRegrets penalizes experts recorded in valid history entries for
// the missed key (§4.3.1 "Regret collection"), then consumes the entries.
func (c *Client) collectRegrets(matches []hashtable.Slot) {
	if len(matches) == 0 {
		return
	}
	// One cheap counter refresh per miss-with-candidates keeps expiry
	// checks honest for get-dominated clients.
	c.hist.RefreshCounter()
	for _, s := range matches {
		bitmap, age, ok := c.hist.Match(s, s.Hash)
		if !ok {
			continue
		}
		c.adapt.Penalize(bitmap, age)
		c.Stats.Regrets++
		c.hist.ClearHash(s.Addr)
	}
}

// ----------------------------------------------------------------- Set ----

// shrinkEvictBatch bounds how many over-budget evictions one Set absorbs
// after a ShrinkCache, amortizing the drain across the write path.
const shrinkEvictBatch = 8

// Set inserts or updates key. Critical path for an insert: one READ
// (bucket search), one WRITE (object to a free location) and one CAS
// (publish the pointer) — §4.1 — plus eviction work only when the memory
// pool is full. The verb sequence is the setPlan in plan.go — the same
// plan MSet runs as doorbell batches — traversed serially here with the
// bounded retry/backoff loop around it.
func (c *Client) Set(key, value []byte) {
	start := c.p.Now()
	c.Stats.Sets++
	c.drainOverBudget(shrinkEvictBatch)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Stats.SetRetries++
			// Hot keys attract concurrent out-of-place updates; the CAS
			// loser backs off briefly (like the paper's lock back-off) so
			// contenders don't stay lock-stepped.
			c.p.Sleep(c.p.Rand().Int63n(2 * sim.Microsecond))
		}
		if attempt > 4096 {
			panic(fmt.Errorf("%w: Set retries exhausted (table misconfigured?)", ErrNoProgress))
		}
		pl := c.acquireSetPlan(key, value)
		c.runner.Serial.Run(pl)
		switch pl.outcome {
		case setDone:
			c.noteSetLocation(pl)
			c.releaseSetPlan(pl)
			c.report(OpSet, start, true)
			return
		case setNoFree:
			// Both buckets full of live objects and valid history entries:
			// evict the lowest-priority live object from the key's buckets
			// directly (slot reclaimed immediately; no history entry for
			// this corner case — the insert needs the slot itself, which a
			// history entry would keep occupied). If the buckets hold no
			// live object at all (all history), sacrifice the oldest
			// history entry. Then retry with a freed slot.
			// pl.scanned views the plan's pooled slot scratch — consumed
			// before the release.
			if !c.bucketEvict(pl.scanned) {
				c.reclaimOldestHistory(pl.scanned)
			}
		case setCASLost:
			// Lost a race; retry with a fresh snapshot.
		}
		c.releaseSetPlan(pl)
	}
}

// allocStallTick is how long a write sleeps per stall round waiting for
// the background reclaimer (about one eviction RTT chain), and
// allocStallRounds bounds those rounds before the write gives up on the
// reclaimer and evicts inline.
const (
	allocStallTick   = 2 * sim.Microsecond
	allocStallRounds = 64
)

// allocOrEvict allocates size bytes, evicting objects until space frees
// up; it panics only when the pool is exhausted with nothing evictable.
//
// With a background reclaimer enabled (Cluster.EnableBackgroundReclaim)
// the inline eviction is the LAST resort: a successful allocation that
// dipped below the low watermark kicks the reclaimer ahead of demand,
// and a failed one stalls in bounded ticks — polling the local allocator
// and the controller pool the reclaimer surrenders freed blocks into —
// so the write's latency is the reclaimer's catch-up time, not the full
// eviction verb chain. WriteStallNs accumulates everything a write
// waited beyond a clean allocation (reclaimer ticks AND inline eviction
// verbs — the "eviction-stall time" the churn bench reports);
// WriteStallTicks counts only the reclaimer stall rounds.
func (c *Client) allocOrEvict(size int) uint64 {
	addr, ok := c.alloc.Alloc(size)
	if ok {
		c.cl.maybeKickReclaim()
		return addr
	}
	start := c.p.Now()
	defer func() { c.Stats.WriteStallNs += c.p.Now() - start }()
	if c.cl.reclaimEnabled {
		c.cl.kickReclaimer()
		// Blocks the reclaimer surrendered earlier may already sit in the
		// controller pool (the local allocator only probes it on its
		// backoff intervals): check before paying the first stall tick.
		if addr, ok = c.alloc.AllocFromPool(size); ok {
			return addr
		}
		for round := 0; round < allocStallRounds; round++ {
			c.Stats.WriteStallTicks++
			// Feed the node's overload signal: the stall rate is what
			// TryMSet's shed decision reads (tenancy.go).
			c.cl.MN.NoteStallTick(c.p.Now())
			c.p.Sleep(allocStallTick)
			if addr, ok = c.alloc.Alloc(size); ok {
				return addr
			}
			if addr, ok = c.alloc.AllocFromPool(size); ok {
				return addr
			}
			c.cl.kickReclaimer() // re-kick: a kick sent mid-round is lost
		}
	}
	for !ok {
		if !c.evictOne() {
			panic(fmt.Errorf("%w: memory pool exhausted and nothing evictable", ErrNoProgress))
		}
		addr, ok = c.alloc.Alloc(size)
	}
	return addr
}

// updateExt rebuilds an object's extension metadata for an out-of-place
// update, into dst (reused when it has capacity). The frequency
// convention matches noteHit — snapshot + pending delta + 1 for the
// current access, with the pending delta read before the access is
// buffered (finishUpdate's fc.Add runs only after the CAS publishes the
// update).
func (c *Client) updateExt(dst []byte, s hashtable.Slot, old decodedObject, size int, now int64) []byte {
	ext := grow(dst, c.cl.totalExt)
	n := copy(ext, old.ext)
	clear(ext[n:])
	meta := &c.extMeta
	*meta = cachealgo.Metadata{
		Size:     hashtable.SizeClassBytes(size),
		InsertTs: s.InsertTs,
		LastTs:   s.LastTs,
		Freq:     s.Freq + 1 + c.fc.PendingDelta(s.Addr),
	}
	for i, a := range c.experts {
		if n := a.ExtSize(); n > 0 {
			meta.Ext = ext[c.extOff[i] : c.extOff[i]+n]
			a.UpdateExt(meta, now)
		}
	}
	return ext
}

// finishUpdate applies the post-CAS effects of a successful out-of-place
// update: free the superseded block (stamping it first, see
// freeStampAsync), buffer the access's freq increment, and touch last_ts
// (async).
func (c *Client) finishUpdate(s hashtable.Slot, keyLen int, now int64) {
	c.freeStampAsync(s.Atomic.Pointer())
	c.alloc.Free(s.Atomic.Pointer(), s.Atomic.SizeBytes())
	c.fc.Add(s.Addr, keyLen)
	c.ht.TouchLastTs(s.Addr, now)
}

// finishInsert applies the post-CAS effects of a successful insert: drop
// any stale buffered delta bound to the recycled slot and initialize the
// slot metadata (async).
func (c *Client) finishInsert(slotAddr uint64, kh uint64, now int64) {
	c.fc.Forget(slotAddr)
	c.ht.WriteMetaOnInsert(slotAddr, kh, now, now, 1)
}

// initExts builds the initial extension metadata for a new object, into
// dst (reused when it has capacity).
func (c *Client) initExts(dst []byte, size int, now int64) []byte {
	if c.cl.totalExt == 0 {
		return nil
	}
	ext := grow(dst, c.cl.totalExt)
	clear(ext)
	meta := &c.extMeta
	*meta = cachealgo.Metadata{
		Size:     hashtable.SizeClassBytes(size),
		InsertTs: now,
		LastTs:   now,
		Freq:     1,
	}
	for i, a := range c.experts {
		if n := a.ExtSize(); n > 0 {
			meta.Ext = ext[c.extOff[i] : c.extOff[i]+n]
			a.InitExt(meta, now)
		}
	}
	return ext
}

// ----------------------------------------------------------- Migration ----

// The SET half of a reshard's READ-old/SET-new/delete-behind step is the
// setPlan in migrate (insert-if-absent) mode plus the source delete CAS —
// see migratePlan in plan.go and the resharder drivers in multi.go.

// hasOtherCopy reports whether a live copy of key exists in its buckets
// at a slot other than exclAddr.
func (c *Client) hasOtherCopy(kh uint64, fp byte, key []byte, exclAddr uint64) bool {
	for _, b := range [2]int{c.cl.Layout.MainBucket(kh), c.cl.Layout.BackupBucket(kh)} {
		for _, s := range c.ht.ReadBucket(b) {
			if s.Addr == exclAddr || s.Atomic.IsEmpty() || s.Atomic.IsHistory() || s.Atomic.FP() != fp {
				continue
			}
			obj := c.readObject(s)
			if dec := decodeObject(obj); dec.ok && bytes.Equal(dec.key, key) {
				return true
			}
		}
	}
	return false
}

// surrenderFreeBlocks hands the client's local free lists back to the MN
// controller; called by transient clients (the resharder) on their way
// out so freed space is not stranded.
func (c *Client) surrenderFreeBlocks() { c.alloc.Surrender() }

// dropMigrated undoes a migrated insert (a migrate-mode setPlan) with a
// precise CAS on the exact
// slot/value it created. A failed CAS means a client already replaced or
// deleted the copy — the newer state wins and nothing is freed. t is the
// tenant the insert was charged to; the undo credits it back.
func (c *Client) dropMigrated(slotAddr uint64, atom hashtable.AtomicField, t TenantID) {
	if _, swapped := c.ht.CASAtomic(slotAddr, atom, 0); swapped {
		c.freeStampAsync(atom.Pointer())
		c.alloc.Free(atom.Pointer(), atom.SizeBytes())
		c.fc.Forget(slotAddr)
		c.accountTenant(t, -int64(atom.SizeBytes()))
	}
}

// -------------------------------------------------------------- Delete ----

// Delete removes key from the cache, reporting whether it was present.
// The verb sequence is the delPlan in plan.go — the same plan MDelete
// runs as doorbell batches — traversed serially here; see its comment for
// why the scan covers BOTH buckets to completion.
func (c *Client) Delete(key []byte) bool {
	c.Stats.Deletes++
	if c.loc != nil {
		c.loc.Drop(key)
	}
	pl := c.acquireDelPlan(key)
	c.runner.Serial.Run(pl)
	deleted := pl.deleted
	c.releaseDelPlan(pl)
	return deleted
}

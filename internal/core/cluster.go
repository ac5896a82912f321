// Package core implements Ditto itself: the client-centric caching
// framework (§4.2) and distributed adaptive caching (§4.3) over the
// simulated disaggregated-memory substrate.
//
// A Cluster owns the memory node, hash-table layout and controller-side
// adaptive state; each client (one per sim process) executes Get/Set/
// Delete entirely with one-sided verbs:
//
//	Get: 1 READ (bucket) + 1 READ (object) + async metadata update
//	Set: 1 READ (bucket) + 1 WRITE (object) + 1 CAS (slot) + async metadata
//	Evict: 1 READ (sample) [+ ext READs] + 1 FAA (history ID) +
//	       1 CAS (slot→history) + async bitmap WRITE
//	MGet/MSet/MDelete: the same verb plans, posted stage-by-stage as
//	       doorbell batches so round trips overlap across the keys
//
// matching §4.1's operation descriptions and the verb budgets asserted in
// the tests. Every verb sequence — eviction included — is declared once
// as a plan (plan.go) and executed through internal/exec under the
// Serial strategy (per-key paths, this file's budgets) or the Doorbell
// strategy (batch.go, the resharder in multi.go, the background
// reclaimer and over-budget drains in evict.go).
package core

import (
	"fmt"

	"ditto/internal/adaptive"
	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
	"ditto/internal/sim"
	"ditto/internal/stats"
)

// Options configures a Ditto cluster. The zero value is not usable; use
// DefaultOptions and override.
type Options struct {
	// ExpectedObjects sizes the hash table (slots ≈ 2.5× objects, so live
	// slots and unexpired history entries coexist) and the default history
	// capacity.
	ExpectedObjects int
	// CacheBytes is the object heap budget: the memory resource of the
	// cache. Evictions begin when it is exhausted.
	CacheBytes int
	// Experts names the caching algorithms run simultaneously as adaptive
	// experts. One entry disables adaptive caching (no history, no
	// regrets) — that is the Ditto-LRU / Ditto-LFU configuration.
	Experts []string
	// SampleK is the eviction sample size (paper default 5, from Redis).
	SampleK int
	// HistorySize overrides the eviction-history capacity (default:
	// ExpectedObjects, following LeCaR).
	HistorySize int
	// FCCacheBytes sizes the client-side frequency-counter cache (paper
	// default 10 MB; 0 disables write combining).
	FCCacheBytes int
	// FCThreshold is the combining threshold t (paper default 10).
	FCThreshold uint64
	// LearningRate is the regret-minimization λ (paper default 0.1).
	LearningRate float64
	// BatchSize is the lazy-weight-update batch (paper default 100).
	BatchSize int
	// SlotsPerBucket sets bucket associativity.
	SlotsPerBucket int
	// MaxCacheBytes reserves registered memory for future GrowCache calls
	// beyond the default slack (elasticity experiments).
	MaxCacheBytes int
	// LocCacheSlots bounds each client's location cache (internal/loccache)
	// behind one-RTT speculative Gets; 0 (the default) disables the cache
	// entirely — no speculative READs, no free-stamp WRITEs — so the verb
	// shapes and virtual-time results are byte-for-byte the seed's.
	LocCacheSlots int
	// Fabric is the timing model.
	Fabric rdma.Config

	// Ablation switches (Figure 24):
	// DisableSFHT models storing access metadata with objects instead of
	// hash-table slots: sampling needs one extra READ per candidate and
	// stateless metadata can no longer be grouped into one WRITE.
	DisableSFHT bool
	// DisableLWH models a conventional remote FIFO history: extra verbs on
	// every history insert and an extra indexed lookup per miss.
	DisableLWH bool
	// EagerWeightSync disables the lazy weight update (one RPC per regret).
	EagerWeightSync bool
}

// DefaultOptions returns the paper's default parameterization for a cache
// of the given expected object count and byte budget.
func DefaultOptions(expectedObjects, cacheBytes int) Options {
	return Options{
		ExpectedObjects: expectedObjects,
		CacheBytes:      cacheBytes,
		Experts:         []string{"LRU", "LFU"},
		SampleK:         5,
		FCCacheBytes:    10 << 20,
		FCThreshold:     10,
		LearningRate:    0.1,
		BatchSize:       100,
		SlotsPerBucket:  hashtable.DefaultSlotsPerBucket,
		Fabric:          rdma.DefaultConfig(),
	}
}

// Cluster is a Ditto deployment: one memory pool plus shared configuration
// for any number of clients in the compute pool.
type Cluster struct {
	Env    *sim.Env
	MN     *memnode.MemNode
	Layout hashtable.Layout
	opts   Options

	// WeightSvc is the controller-side adaptive state (nil when a single
	// expert is configured).
	WeightSvc *adaptive.Service

	// servedReads counts the read operations this memory node actually
	// served (hits — including forwarding-window and read-spread probe
	// hits — plus counted misses). It is the per-node load signal the
	// hotspot bench reports: under hot-key replication, read spreading
	// shifts ServedReads from a key's primary owner to its replicas.
	// Sharded into per-client cells so the hot-path increment touches
	// only client-local state; read it through ServedReads().
	servedReads stats.ShardedCounter

	reclaimEnabled bool
	reclaimKick    *sim.Cond
	reclaimer      *Client
	reclaimProc    *sim.Proc

	// reclaimRestarts counts reclaimer respawns after a crash (fault
	// injection); dead marks a fail-stopped node (Crash).
	reclaimRestarts int64
	dead            bool

	// avgVictimBlocks is a running estimate of the eviction victim size
	// (in blocks), used to size multi-victim reclaim rounds so a drain
	// does not overshoot the budget by more than the estimate's error.
	avgVictimBlocks float64

	// onEvictHash, when non-nil, observes the key hash of every eviction
	// victim on this node. MultiCluster's hot-key replication layer
	// installs it so the eviction of a promoted key's primary copy can
	// demote the entry (the hook must not issue verbs — demotion happens
	// lazily at the next directory touch).
	onEvictHash func(keyHash uint64)

	// Tenancy (quotas, TTL leases, overload shedding). tenantMode turns
	// the whole tenant path on — off (the default) nothing reads the
	// header's tenant/expiry fields, accounting is skipped, and eviction
	// samples with the seed's verb shapes, so single-tenant deployments
	// are byte-for-byte unchanged. SetTenantQuota enables it.
	tenantMode  bool
	tenantQuota [MaxTenants]int64 // bytes; 0 = unlimited
	tenantUsage *stats.TenantCounter

	// verClients hands out the 16-bit client ids behind object incarnation
	// stamps (object.go): each NewClient takes the next id, so stamps from
	// different clients can never collide. Wraps after 65535 clients per
	// cluster — far beyond the one-client-per-core model's populations.
	verClients uint16

	histSize int
	extSizes []int // per-expert extension bytes (from a prototype instance)
	totalExt int
}

// NewCluster builds the memory pool, places the hash table and registers
// controller services.
func NewCluster(env *sim.Env, opts Options) *Cluster {
	if opts.ExpectedObjects <= 0 {
		//dittolint:allow typederr (config validation at cluster construction)
		panic("core: ExpectedObjects must be positive")
	}
	if opts.CacheBytes <= 0 {
		//dittolint:allow typederr (config validation at cluster construction)
		panic("core: CacheBytes must be positive")
	}
	if len(opts.Experts) == 0 {
		opts.Experts = []string{"LRU", "LFU"}
	}
	if len(opts.Experts) > 32 {
		//dittolint:allow typederr (config validation at cluster construction)
		panic("core: at most 32 experts (expert bitmap is 32-bit in a 64-bit field)")
	}
	if opts.SampleK <= 0 {
		opts.SampleK = 5
	}
	if opts.SlotsPerBucket <= 0 {
		opts.SlotsPerBucket = hashtable.DefaultSlotsPerBucket
	}
	if opts.FCThreshold == 0 {
		opts.FCThreshold = 10
	}

	slots := opts.ExpectedObjects * 5 / 2
	buckets := (slots + opts.SlotsPerBucket - 1) / opts.SlotsPerBucket
	if buckets < 4 {
		buckets = 4
	}
	tblCfg := hashtable.Config{Buckets: buckets, SlotsPerBucket: opts.SlotsPerBucket}

	// Segments must be small relative to the heap so capacity is granular
	// and many clients can hold private segments without exhausting the
	// pool; clamp between 512 B and the 64 KB default.
	seg := opts.CacheBytes / 64 / memnode.BlockSize * memnode.BlockSize
	if seg > memnode.DefaultSegmentSize {
		seg = memnode.DefaultSegmentSize
	}
	if seg < 8*memnode.BlockSize {
		seg = 8 * memnode.BlockSize
	}

	// Registered region: header + table + requested heap + generous slack
	// so elasticity experiments can grow the heap later.
	slack := opts.CacheBytes * 3
	if opts.MaxCacheBytes > 0 && opts.MaxCacheBytes+opts.CacheBytes > slack {
		slack = opts.MaxCacheBytes + opts.CacheBytes
	}
	memBytes := 64 + tblCfg.Bytes() + slack + seg*4
	mn := memnode.New(env, memnode.Config{MemBytes: memBytes, SegmentSize: seg, Fabric: opts.Fabric})
	base := mn.PlaceTable(tblCfg.Bytes())
	mn.SetHeapLimit(opts.CacheBytes)

	cl := &Cluster{
		Env:         env,
		MN:          mn,
		Layout:      hashtable.Layout{Config: tblCfg, Base: base},
		opts:        opts,
		tenantUsage: stats.NewTenantCounter(MaxTenants),
	}

	cl.histSize = opts.HistorySize
	if cl.histSize <= 0 {
		cl.histSize = opts.ExpectedObjects
	}

	for _, name := range opts.Experts {
		proto, err := cachealgo.New(name)
		if err != nil {
			//dittolint:allow typederr (config validation: unknown expert name, caught at cluster construction)
			panic(fmt.Sprintf("core: %v", err))
		}
		cl.extSizes = append(cl.extSizes, proto.ExtSize())
		cl.totalExt += proto.ExtSize()
	}

	if cl.Adaptive() {
		cl.WeightSvc = adaptive.RegisterService(mn.Node, len(opts.Experts))
	}
	return cl
}

// Adaptive reports whether distributed adaptive caching is active (more
// than one expert).
func (cl *Cluster) Adaptive() bool { return len(cl.opts.Experts) > 1 }

// specMode reports whether one-RTT speculative Gets are enabled
// (Options.LocCacheSlots > 0). It gates every verb the feature adds —
// speculative READs and free-stamp WRITEs — so specMode=false keeps the
// seed's verb shapes exactly.
func (cl *Cluster) specMode() bool { return cl.opts.LocCacheSlots > 0 }

// Options returns the cluster's configuration.
func (cl *Cluster) Options() Options { return cl.opts }

// HistorySize returns the logical FIFO history capacity.
func (cl *Cluster) HistorySize() int { return cl.histSize }

// ServedReads sums the sharded per-client served-read cells — the
// per-node load signal the hotspot bench reports.
func (cl *Cluster) ServedReads() int64 { return cl.servedReads.Sum() }

// GrowCache raises the cache's memory budget by bytes at runtime — the
// "add memory" elasticity knob of Figure 13/22: no data migration, the new
// space is simply allocatable by every client.
func (cl *Cluster) GrowCache(bytes int) { cl.MN.GrowHeap(bytes) }

// ShrinkCache lowers the cache's memory budget by bytes at runtime — the
// "remove memory" counterpart of GrowCache, completing the second
// elasticity axis. The limit drops immediately; live objects above the
// new budget are drained by client write paths, which evict a bounded
// batch per Set while the node is over budget (so the cost is amortized
// across operations instead of stalling one unlucky client), or by the
// background reclaimer when one is enabled (the shrink kicks it).
func (cl *Cluster) ShrinkCache(bytes int) {
	cl.MN.ShrinkHeap(bytes)
	cl.kickReclaimer()
}

// ------------------------------------------------------ Maintenance strategy ----

// maintenance is the strategy every maintenance batch runs under: the
// resharder's table scan and migrations, the replica fan-outs, and the
// multi-victim eviction batches (reclaimer rounds and over-budget
// drains). Production always runs exec.Doorbell. Single evictions on a
// client's write path run under exec.Serial regardless.
var maintenance = exec.Doorbell

// SetMaintenanceStrategy makes every maintenance batch run under s until
// the returned func restores the previous strategy. exec.Serial issues
// one verb per round trip — the paper-faithful per-key chains that the
// doorbell rounds are measured against. Results are identical under
// either strategy; only verb shapes and virtual time differ. It is a
// process-wide test and comparison hook (the equivalence tests and the
// bench's serial rows), not safe to call while a simulation runs, and
// package ditto does not expose it.
func SetMaintenanceStrategy(s exec.Strategy) (restore func()) {
	prev := maintenance
	maintenance = s
	return func() { maintenance = prev }
}

// ------------------------------------------------------ Background reclaim ----

// reclaimBatchMax bounds how many victims one reclaimer round attempts
// (one doorbell batch of evict plans under exec.Doorbell).
const reclaimBatchMax = 16

// EnableBackgroundReclaim starts this cluster's proactive reclaimer: a
// background sim process that watches the allocator's free-space
// watermarks (memnode.SetWatermarks) and runs batched eviction plans
// as doorbell rounds AHEAD of demand — it wakes when free space dips
// below the low watermark and reclaims until it is back above the high
// one, surrendering the freed blocks to the controller pool where any
// client's allocator can fetch them. Client writes then stall on
// allocOrEvict only when the reclaimer has genuinely fallen behind (and
// fall back to inline eviction after a bounded stall).
//
// low/high are free-byte watermarks; values <= 0 pick defaults of 1/16
// and 1/8 of the heap. The process parks when there is no pressure and
// is kicked by allocations, drains and shrinks that cross the low
// watermark, so it adds no load to an idle cluster.
func (cl *Cluster) EnableBackgroundReclaim(low, high int) {
	if cl.reclaimEnabled {
		return
	}
	hb := cl.MN.HeapBytes()
	if low <= 0 {
		low = hb / 16
	}
	if high <= 0 {
		high = hb / 8
	}
	if low < memnode.BlockSize {
		low = memnode.BlockSize
	}
	if high < low {
		high = low
	}
	cl.MN.SetWatermarks(low, high)
	cl.reclaimKick = sim.NewCond(cl.Env)
	cl.reclaimEnabled = true
	cl.spawnReclaimer()
}

// spawnReclaimer starts (or restarts) the background reclaimer process.
// The OnCrash hook makes the reclaimer self-healing under fault
// injection: a killed reclaimer respawns immediately, and the pending
// kick re-fires so pressure accumulated during the outage is not lost.
// Safe because reclaim work is idempotent — eviction CASes are atomic,
// and blocks the dead incarnation freed but had not yet surrendered are
// merely stranded (a bounded leak a real crashed client would also
// leave), never double-owned.
func (cl *Cluster) spawnReclaimer() {
	cl.reclaimProc = cl.Env.Go("reclaimer", func(p *sim.Proc) {
		p.OnCrash(func() {
			if cl.dead {
				return // the whole node crashed: the reclaimer dies with it
			}
			cl.reclaimRestarts++
			cl.spawnReclaimer()
			cl.kickReclaimer()
		})
		rc := cl.NewClient(p)
		cl.reclaimer = rc
		for {
			cl.reclaimKick.Wait(p)
			if cl.dead || !cl.MN.BelowLowWater() {
				if cl.dead {
					return // the node is gone; no heap left to reclaim
				}
				continue // spurious kick: pressure resolved before we ran
			}
			rc.Stats.ReclaimerWakeups++
			for cl.MN.BelowHighWater() {
				n := cl.victimsFor(cl.MN.ReclaimTarget() - cl.MN.FreeBytes())
				if n > reclaimBatchMax {
					n = reclaimBatchMax
				}
				got := rc.evictBatch(n, maintenance)
				// Freed blocks land on the reclaimer's own lists; surrender
				// them immediately so stalled writers can fetch them from
				// the controller pool.
				rc.surrenderFreeBlocks()
				if got == 0 {
					break // nothing evictable right now; re-arm on the next kick
				}
			}
		}
	})
}

// Crash fail-stops this node: the fabric goes unreachable (in-flight
// verbs time out, see internal/rdma) and the node's background
// reclaimer — a server-side process that dies with its node — is killed
// without respawn. MultiCluster.CrashNode drives this together with the
// membership change.
func (cl *Cluster) Crash() {
	cl.dead = true
	cl.MN.Node.Fail()
	if cl.reclaimProc != nil {
		cl.Env.Kill(cl.reclaimProc)
	}
}

// ReclaimerRestarts returns how many times the background reclaimer was
// respawned after being killed by fault injection.
func (cl *Cluster) ReclaimerRestarts() int64 { return cl.reclaimRestarts }

// Dead reports whether this node was fail-stopped by Crash.
func (cl *Cluster) Dead() bool { return cl.dead }

// ReclaimEnabled reports whether a background reclaimer is running.
func (cl *Cluster) ReclaimEnabled() bool { return cl.reclaimEnabled }

// ReclaimerStats returns the background reclaimer's own client counters
// (its evictions, sample volume and wakeups); zero when no reclaimer is
// enabled or it has not run yet.
func (cl *Cluster) ReclaimerStats() Stats {
	if cl.reclaimer == nil {
		return Stats{}
	}
	return cl.reclaimer.Stats
}

// kickReclaimer wakes the background reclaimer unconditionally (no-op
// when none is enabled).
func (cl *Cluster) kickReclaimer() {
	if cl.reclaimKick != nil {
		cl.reclaimKick.Broadcast()
	}
}

// maybeKickReclaim wakes the reclaimer when free space has dipped below
// the low watermark — the proactive half: called on the write path's
// successful allocations, so reclaim starts before writers stall.
func (cl *Cluster) maybeKickReclaim() {
	if cl.reclaimEnabled && cl.MN.BelowLowWater() {
		cl.reclaimKick.Broadcast()
	}
}

// noteVictimBlocks feeds the running victim-size estimate with a won
// eviction's size (in blocks).
func (cl *Cluster) noteVictimBlocks(b int) {
	if cl.avgVictimBlocks == 0 {
		cl.avgVictimBlocks = float64(b)
		return
	}
	cl.avgVictimBlocks += (float64(b) - cl.avgVictimBlocks) / 16
}

// victimsFor estimates how many evictions free `bytes` of heap, from the
// running victim-size average (assuming one block before any eviction
// has been observed). Always at least 1.
func (cl *Cluster) victimsFor(bytes int) int {
	avg := cl.avgVictimBlocks
	if avg < 1 {
		avg = 1
	}
	n := int(float64(bytes) / (avg * memnode.BlockSize))
	if n < 1 {
		n = 1
	}
	return n
}

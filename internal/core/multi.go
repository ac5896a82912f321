package core

import (
	"bytes"
	"sort"
	"sync/atomic"

	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/hotset"
	"ditto/internal/rdma"
	"ditto/internal/ring"
	"ditto/internal/sim"
)

// MultiCluster is a Ditto deployment over several memory nodes. The paper
// evaluates with one MN but notes Ditto "is compatible with memory pools
// with multiple MNs as long as the memory pool offers the required
// interfaces" (§5.1): keys are partitioned across MNs by a consistent-hash
// ring (internal/ring), each MN hosts its own table shard, heap, history
// counter and controller. Compute-side elasticity is unchanged; memory
// elasticity gains a second axis — grow/shrink one MN's heap, or add and
// remove whole MNs at runtime with AddNode and RemoveNode.
//
// A membership change starts a reshard: a background sim process walks the
// affected table shards with the same one-sided verbs clients use (READ
// the old copy, SET it on the new owner, delete behind) and migrates only
// the keys whose ring owner changed. While the reshard is in flight the
// old and new rings are both live: Gets that miss on the new owner are
// forwarded to the old owner, so no key ever disappears mid-migration,
// and the migration copy never overwrites a value written during the
// window (the copy is insert-if-absent, and it is undone with a precise
// CAS when the source copy was concurrently deleted or replaced).
//
// The repair discipline is detect-then-repair, not atomic, so two
// bounded staleness windows exist DURING a reshard and are resolved by
// its end: a Delete racing the migration of its own key can see the dead
// value transiently readable for a few verb round trips before the undo
// lands, and a write racing a migrated insert into a different slot can
// be shadowed by the stale copy until the resharder's final verification
// sweep drops it. Neither survives the reshard.
//
// Adaptive state is kept per MN: each MN's controller aggregates the
// weights for the keys it hosts. Access patterns are hash-split, so the
// per-MN mixes converge to the global mix.
type MultiCluster struct {
	Env *sim.Env

	perNode Options          // per-MN sizing, fixed at construction
	nodes   map[int]*Cluster // node ID → cluster
	order   []int            // active node IDs, in Node() index order
	nextID  int

	// route is the pool's routing state as ONE immutable snapshot behind
	// an atomic pointer (RCU-style): readers load it once and route a
	// whole decision against a consistent view — ring, forwarding window,
	// drain target and epoch can never tear apart — while membership
	// changes publish a fresh snapshot in one store (publishRoute). The
	// rings themselves are already immutable (ring.With/Without return
	// new rings), so a loaded snapshot stays valid forever; it just goes
	// stale, which the epoch comparison detects.
	route atomic.Pointer[routeSnapshot]
	done  *sim.Cond // broadcast when a reshard completes

	// Reshards counts completed membership changes; MigratedKeys counts
	// objects moved between MNs by resharding; ReshardNs accumulates the
	// virtual time spent inside reshard windows.
	Reshards     int64
	MigratedKeys int64
	ReshardNs    int64

	// NodeCrashes counts fail-stopped nodes (CrashNode); ReshardRestarts
	// counts resharder incarnations respawned after a kill.
	NodeCrashes     int64
	ReshardRestarts int64

	// Hot-key replication (replica.go). hot is nil until
	// EnableHotKeyReplication is called; every knob and counter below is
	// inert while it is.
	hot *hotset.Set

	// HotThreshold is the hit frequency at which a key is promoted into
	// the replicated set; ReplicaFactor is R, the number of ring-successor
	// nodes a promoted key's value is copied to beyond its primary owner.
	// Both are set by EnableHotKeyReplication.
	HotThreshold  uint64
	ReplicaFactor int

	// reclaimLow/reclaimHigh remember EnableBackgroundReclaim's
	// watermarks so nodes provisioned later (AddNode) get a reclaimer of
	// their own.
	reclaimAll              bool
	reclaimLow, reclaimHigh int

	// Multi-tenancy (tenancy.go). Per-node quotas are provisioned like
	// CacheBytes: SetTenantQuota splits the pool-wide quota evenly across
	// the current members, and provision hands the same per-node slice to
	// nodes added later — AddNode grows the aggregate quota with the pool,
	// exactly as it grows aggregate cache bytes. Inert until
	// SetTenantQuota is called.
	tenantMode        bool
	tenantPerNode     [MaxTenants]int64
	overloadThreshold int64
	overloadWindowNs  int64

	// Promotions and Demotions count replicated-set membership changes;
	// AdmissionRejects counts promotion candidates a full directory
	// turned away because the admission sketch did not rank them above
	// the entry they would displace; GateRejects counts candidates the
	// replication gate turned away because spreading them would not
	// lower the busiest node's load (hotset.Spreads); SpreadReads counts
	// reads served by a replica instead of the primary — the work the
	// replication layer moved off hot nodes.
	Promotions       int64
	Demotions        int64
	AdmissionRejects int64
	GateRejects      int64
	SpreadReads      int64
}

// routeSnapshot is one immutable routing view. Everything a routing
// decision consults lives here, so loading the snapshot once gives an
// operation a consistent picture regardless of concurrent membership
// changes; members caches the active node IDs in ascending order so
// fan-out paths iterate a pre-sorted slice instead of re-sorting their
// group keys per call.
type routeSnapshot struct {
	hashRing *ring.Ring // current (target) routing ring
	oldRing  *ring.Ring // pre-reshard ring; non-nil while migrating
	draining int        // node being drained by RemoveNode (-1 otherwise)
	epoch    uint64     // bumped on every ring change (clients re-route)
	members  []int      // active node IDs, ascending (provision order)
}

// owner returns the owner of key under this snapshot's routing ring,
// plus the old owner to forward to (-1 when no forwarding window
// applies).
func (s *routeSnapshot) owner(key []byte) (cur, old int) {
	pt := ring.Point(hashtable.KeyHash(key))
	cur, old = s.hashRing.Owner(pt), -1
	if prev := s.oldRing; prev != nil {
		if o := prev.Owner(pt); o != cur {
			old = o
		}
	}
	return cur, old
}

// fanoutOrder returns the group map's keys in ascending order. In the
// steady state every group key is a pool member, so the snapshot's
// pre-sorted members slice serves as the iteration order (callers skip
// IDs with no group) and nothing is sorted or allocated per call; a
// stray owner — a ring member with no backing node, possible in
// degraded deployments — falls back to sorting the keys.
func (s *routeSnapshot) fanoutOrder(groups map[int][]int) []int {
	found := 0
	for _, id := range s.members {
		if _, ok := groups[id]; ok {
			found++
		}
	}
	if found == len(groups) {
		return s.members
	}
	return sortedNodeIDs(groups)
}

// snap loads the current routing snapshot.
func (mc *MultiCluster) snap() *routeSnapshot { return mc.route.Load() }

// publishRoute installs a new routing snapshot — THE atomic switch every
// membership change funnels through. The caller finishes all membership
// bookkeeping (mc.nodes, mc.order) first, without yielding, so the
// published members list matches the rings; the epoch advances with
// every publish, which is what in-flight operations' staleness checks
// key on.
func (mc *MultiCluster) publishRoute(hashRing, oldRing *ring.Ring, draining int) {
	var epoch uint64
	if prev := mc.route.Load(); prev != nil {
		epoch = prev.epoch + 1
	}
	mc.route.Store(&routeSnapshot{
		hashRing: hashRing,
		oldRing:  oldRing,
		draining: draining,
		epoch:    epoch,
		members:  append([]int(nil), mc.order...),
	})
}

// NewMultiCluster creates n memory nodes, each provisioned with opts
// scaled down by n (objects and bytes split evenly). Nodes added later
// with AddNode get the same per-node provisioning.
func NewMultiCluster(env *sim.Env, n int, opts Options) *MultiCluster {
	if n < 1 {
		//dittolint:allow typederr (config validation at pool construction)
		panic("core: need at least one memory node")
	}
	per := opts
	per.ExpectedObjects = (opts.ExpectedObjects + n - 1) / n
	per.CacheBytes = (opts.CacheBytes + n - 1) / n
	if per.MaxCacheBytes > 0 {
		per.MaxCacheBytes = (opts.MaxCacheBytes + n - 1) / n
	}
	mc := &MultiCluster{
		Env:     env,
		perNode: per,
		nodes:   make(map[int]*Cluster),
		done:    sim.NewCond(env),
	}
	h := ring.New(0)
	for i := 0; i < n; i++ {
		id := mc.provision()
		h = h.With(id)
	}
	mc.publishRoute(h, nil, -1)
	return mc
}

// provision creates one MN and registers it, without touching the routing
// ring — the caller decides whether the join is immediate (construction)
// or via a reshard (AddNode). Nodes inherit the pool's background
// reclaimer (when enabled) and the hot-key eviction hook, so a node added
// mid-run behaves like its peers.
func (mc *MultiCluster) provision() int {
	id := mc.nextID
	mc.nextID++
	cl := NewCluster(mc.Env, mc.perNode)
	if mc.reclaimAll {
		cl.EnableBackgroundReclaim(mc.reclaimLow, mc.reclaimHigh)
	}
	if mc.hot != nil {
		mc.installEvictHook(id, cl)
	}
	if mc.tenantMode {
		for t, q := range mc.tenantPerNode {
			if q > 0 {
				cl.SetTenantQuota(TenantID(t), q)
			}
		}
	}
	if mc.overloadThreshold > 0 {
		cl.EnableOverloadControl(mc.overloadThreshold, mc.overloadWindowNs)
	}
	mc.nodes[id] = cl
	mc.order = append(mc.order, id)
	return id
}

// EnableBackgroundReclaim starts a proactive reclaimer on every memory
// node (see Cluster.EnableBackgroundReclaim); nodes added later by
// AddNode get one too.
// low/high <= 0 pick the per-node defaults.
func (mc *MultiCluster) EnableBackgroundReclaim(low, high int) {
	mc.reclaimAll = true
	mc.reclaimLow, mc.reclaimHigh = low, high
	for _, id := range mc.order {
		mc.nodes[id].EnableBackgroundReclaim(low, high)
	}
}

// NumNodes returns the memory-node count (a draining node counts until
// its removal completes).
func (mc *MultiCluster) NumNodes() int { return len(mc.order) }

// Node returns the i-th memory node's cluster view (for resource knobs and
// stats). Indices shift when RemoveNode completes; NodeID gives the stable
// handle.
func (mc *MultiCluster) Node(i int) *Cluster { return mc.nodes[mc.order[i]] }

// NodeID returns the i-th node's stable ID (as returned by AddNode and
// accepted by RemoveNode).
func (mc *MultiCluster) NodeID(i int) int { return mc.order[i] }

// Resharding reports whether a membership change is still migrating keys.
func (mc *MultiCluster) Resharding() bool { return mc.snap().oldRing != nil }

// OwnerOf returns the node ID that currently routes key — the owner
// under the live ring (the NEW ring during a reshard). Chaos harnesses
// use it to partition keys into "owned by the crashed node" vs
// survivors when asserting which keys may legally disappear.
func (mc *MultiCluster) OwnerOf(key []byte) int {
	return mc.snap().hashRing.Owner(ring.Point(hashtable.KeyHash(key)))
}

// WaitReshard blocks p until no reshard is in flight.
func (mc *MultiCluster) WaitReshard(p *sim.Proc) {
	for mc.snap().oldRing != nil {
		mc.done.Wait(p)
	}
}

// AddNode provisions a new memory node, joins it to the ring, and starts
// migrating the keys it now owns (~1/n of the key space) in a background
// sim process. It returns the new node's ID immediately; use WaitReshard
// to observe completion. Only one membership change may be in flight.
func (mc *MultiCluster) AddNode() int {
	if mc.snap().oldRing != nil {
		//dittolint:allow typederr (API-misuse guard: membership changes are declared one at a time)
		panic("core: AddNode during an in-flight reshard (WaitReshard first)")
	}
	sources := append([]int(nil), mc.order...) // keys move only from old MNs
	id := mc.provision()
	mc.startReshard(mc.snap().hashRing.With(id), sources, -1)
	return id
}

// RemoveNode drains node id: its keys migrate to the surviving owners in a
// background sim process, Gets keep being served from the draining node
// until its copies move, and the node leaves the pool when the drain
// completes. Only one membership change may be in flight.
func (mc *MultiCluster) RemoveNode(id int) {
	if mc.snap().oldRing != nil {
		//dittolint:allow typederr (API-misuse guard: membership changes are declared one at a time)
		panic("core: RemoveNode during an in-flight reshard (WaitReshard first)")
	}
	if _, ok := mc.nodes[id]; !ok {
		//dittolint:allow typederr (API-misuse guard: the harness names nodes it created)
		panic("core: RemoveNode of unknown node")
	}
	if len(mc.order) == 1 {
		//dittolint:allow typederr (API-misuse guard: an empty pool has no semantics)
		panic("core: cannot remove the last memory node")
	}
	mc.startReshard(mc.snap().hashRing.Without(id), []int{id}, id)
}

// CrashNode fail-stops node id: every copy it hosted is lost, in-flight
// verbs against it fail with rdma.NodeUnreachableError after a timeout,
// and the pool reconfigures immediately — the node leaves both routing
// rings and the membership in one atomic step (no verbs between them),
// so clients observe either the old pool or the new one, never a
// half-removed node. Unlike RemoveNode there is no drain: the crashed
// node's keys become misses and re-enter the cache through the normal
// miss path on their new owners.
//
// The consistent-hash ring's Without reassigns ONLY the crashed node's
// ranges, so every surviving key keeps its owner — the basis of the
// chaos suite's "no key lost outside the crashed node's ownership"
// invariant. Crashing is legal mid-reshard (the resharder catches the
// unreachable error and drops the node from its remaining work) but the
// last node cannot crash — an empty pool has no failure semantics worth
// modeling.
func (mc *MultiCluster) CrashNode(id int) {
	cl, ok := mc.nodes[id]
	if !ok {
		//dittolint:allow typederr (API-misuse guard: the harness names nodes it created)
		panic("core: CrashNode of unknown node")
	}
	if len(mc.order) == 1 {
		//dittolint:allow typederr (API-misuse guard: an empty pool has no failure semantics)
		panic("core: cannot crash the last memory node")
	}
	cl.Crash()
	s := mc.snap()
	h := s.hashRing.Without(id)
	old := s.oldRing
	if old != nil {
		old = old.Without(id)
	}
	draining := s.draining
	if draining == id {
		draining = -1
	}
	delete(mc.nodes, id)
	for i, nid := range mc.order {
		if nid == id {
			mc.order = append(mc.order[:i], mc.order[i+1:]...)
			break
		}
	}
	// One publish switches both rings, the drain target and the
	// membership together (no verbs since Crash), so clients observe the
	// old pool or the new one, never a half-removed node.
	mc.publishRoute(h, old, draining)
	mc.NodeCrashes++
	if mc.hot != nil {
		// Entry locks held by procs that died with the node (or by the
		// killed reclaimer) must be stealable; wake the parked waiters.
		mc.hot.CrashWake()
	}
}

// maxReshardPasses bounds the straggler sweeps of one reshard. A pass that
// migrates nothing ends the reshard; extra passes catch keys written to an
// old owner by clients whose routing decision raced the ring switch.
const maxReshardPasses = 8

// reshardState carries one membership change's progress across resharder
// incarnations. Fault injection may kill the resharder mid-migration;
// the OnCrash-respawned replacement shares this state so the inserts
// list survives (the verification sweep must cover copies published
// before the crash) while the scan passes simply restart — migration is
// insert-if-absent, so re-scanning is idempotent.
type reshardState struct {
	sources   []int
	dropID    int
	inserts   []migratedCopy
	start     int64
	restarts  int64
	finalized bool // ring/membership switch done; only cleanup remains
}

// migratedCopy remembers one insert the resharder published, so the
// end-of-reshard verification sweep can find and resolve duplicates.
type migratedCopy struct {
	// dstID names the destination NODE, not a client handle: the sweep
	// may run in a respawned resharder incarnation whose predecessor
	// (and its clients, bound to the dead process) were killed — it must
	// resolve a live client of its own at sweep time.
	dstID  int
	kh     uint64
	fp     byte
	key    []byte
	addr   uint64
	atom   hashtable.AtomicField
	tenant TenantID // owning tenant, for usage credit if the copy is dropped
}

// startReshard switches the routing ring to newRing and spawns the
// resharder process that migrates every key whose owner changed, scanning
// the given source nodes. dropID >= 0 names a node to retire when the
// migration completes (RemoveNode).
func (mc *MultiCluster) startReshard(newRing *ring.Ring, sources []int, dropID int) {
	mc.publishRoute(newRing, mc.snap().hashRing, dropID)
	mc.spawnResharder(&reshardState{
		sources: sources,
		dropID:  dropID,
		start:   mc.Env.Now(),
	})
}

// spawnResharder runs one resharder incarnation over st. If the process
// is killed by fault injection, its OnCrash hook respawns a replacement
// sharing st, so the membership change always completes; every verb
// sequence against a node that fail-stops mid-reshard is caught and the
// node is simply dropped from the remaining work (CrashNode removes it
// from the pool, so the next pass no longer sees it).
func (mc *MultiCluster) spawnResharder(st *reshardState) {
	mc.Env.Go("resharder", func(p *sim.Proc) {
		p.OnCrash(func() {
			st.restarts++
			mc.ReshardRestarts++
			mc.spawnResharder(st)
			if mc.hot != nil {
				// The dead incarnation may hold hot-entry locks; wake the
				// parked waiters so they observe the owner died and steal.
				mc.hot.CrashWake()
			}
		})
		m := mc.NewClient(p)
		if !st.finalized {
			mc.runReshard(p, m, st)
		}
		// The resharder is transient: return its free lists (the space of
		// every source copy it deleted) to the surviving controllers, or
		// that heap space would be stranded when this client goes away.
		for _, id := range sortedNodeIDs(m.clients) {
			cl, alive := mc.nodes[id]
			if !alive || cl.dead {
				continue
			}
			c := m.clients[id]
			_ = rdma.CatchUnreachable(func() { c.surrenderFreeBlocks() })
		}
		m.Close()
		mc.done.Broadcast()
	})
}

// runReshard performs the migration passes and the ring/membership
// switch for one membership change. Separated from spawnResharder so a
// respawned incarnation that finds st.finalized already set skips
// straight to cleanup (a kill can land between the switch and the
// free-list surrender).
func (mc *MultiCluster) runReshard(p *sim.Proc, m *MultiClient, st *reshardState) {
	// Dissolve the hot-key replica sets BEFORE scanning anything: the
	// migrate plan's insert-if-absent treats any existing destination
	// copy as "newer by construction", which replica copies violate —
	// a scanned replica copy migrated into a key's new owner would
	// make the real primary copy look like a duplicate (its removal
	// would then be a lost write), and on RemoveNode a replica copy
	// promoted to primary-by-migration would afterwards be deleted by
	// its own entry's demotion. Demoting everything first (promotion
	// is refused while the window is open, and an in-flight promotion
	// self-demotes on the epoch change, so the directory stays empty)
	// means the scan only ever sees single copies.
	if mc.hot != nil {
		for try := 0; try < 4; try++ {
			if rdma.CatchUnreachable(func() { m.demoteAll() }) == nil {
				break
			}
			// A node fail-stopped mid-demote; its copies died with it, and
			// demotion is idempotent, so retry over the survivors.
		}
	}
	for pass := 0; pass < maxReshardPasses; pass++ {
		pending := int64(0)
		for _, id := range st.sources {
			cl, ok := mc.nodes[id]
			if !ok || cl.dead {
				continue // crashed out of the pool; nothing left to scan
			}
			src := id
			if rdma.CatchUnreachable(func() {
				pending += mc.migrateNode(m, src, &st.inserts)
			}) != nil {
				// A node (the source, or a migration destination) fail-
				// stopped mid-scan. Count the interrupted scan as pending
				// work: by the next pass CrashNode has removed the node, so
				// either the source is skipped above or the keys re-route
				// to a live owner.
				pending++
			}
		}
		if pending == 0 && pass >= 1 {
			break
		}
	}
	// A draining node must be completely empty before it can leave the
	// pool — a key left behind would become a permanent miss. This
	// converges unconditionally: no Set routes to the drained node (it
	// is absent from the current ring), so its population strictly
	// shrinks. These extra passes double as the insert-free separation
	// the verification sweep below relies on.
	if st.dropID >= 0 {
		for {
			cl, ok := mc.nodes[st.dropID]
			if !ok || cl.dead {
				break // the draining node crashed; its copies died with it
			}
			var moved int64
			if rdma.CatchUnreachable(func() {
				moved = mc.migrateNode(m, st.dropID, &st.inserts)
			}) != nil {
				continue // re-check liveness and retry over survivors
			}
			if moved == 0 {
				break
			}
		}
	}
	// Final duplicate verification. The migrate plan's immediate
	// post-publish sweep has a
	// TOCTOU hole: a client Set that read the buckets before our CAS
	// landed can publish the same key into a DIFFERENT slot just after
	// the sweep, leaving two live copies with ours (stale) possibly
	// first in Get's scan order. By now at least one full scan pass
	// separates us from every insert, and a Set attempt's read-to-CAS
	// span is a handful of verbs — any Set still in flight re-read the
	// buckets after our copy was visible and updated it in place. So a
	// duplicate found here is a completed racing write: drop our copy.
	// A destination that crashed since the insert lost both copies with
	// the node — nothing to resolve there.
	for _, ins := range st.inserts {
		dst := m.clientFor(ins.dstID)
		if dst == nil || dst.cl.dead {
			continue // the destination crashed: both copies died with it
		}
		ins := ins
		_ = rdma.CatchUnreachable(func() {
			if dst.hasOtherCopy(ins.kh, ins.fp, ins.key, ins.addr) {
				dst.dropMigrated(ins.addr, ins.atom, ins.tenant)
			}
		})
	}
	// Membership bookkeeping first, then ONE snapshot publish (no verbs
	// between these steps), so clients observe the window closing and
	// the membership change atomically.
	mc.Reshards++
	mc.ReshardNs += p.Now() - st.start
	if st.dropID >= 0 {
		if _, ok := mc.nodes[st.dropID]; ok {
			delete(mc.nodes, st.dropID)
			for i, id := range mc.order {
				if id == st.dropID {
					mc.order = append(mc.order[:i], mc.order[i+1:]...)
					break
				}
			}
		}
	}
	mc.publishRoute(mc.snap().hashRing, nil, -1)
	st.finalized = true
}

// reshardScanBuckets is how many table buckets one scan doorbell covers
// under the Doorbell strategy, and reshardBatch how many migrations run
// as one lock-step plan batch (each plan spans the source and one
// destination endpoint).
const (
	reshardScanBuckets = 16
	reshardBatch       = 32
)

// migrateNode walks one source MN's table shard and moves every live
// object whose ring owner changed: READ the object, insert-if-absent on
// the new owner (carrying its hotness metadata), then delete the source
// copy behind it with a CAS that verifies the copy did not change while
// in flight — the migratePlan of plan.go. If that CAS fails — the key was
// concurrently deleted, evicted, or replaced — the fresh insert is undone
// with a precise CAS so a dead value can never resurface. Successful
// inserts are appended to inserts for the end-of-reshard duplicate
// verification. Returns the amount of pending work observed: keys
// actually moved plus source slots that changed mid-copy (a failed source
// CAS may mean a straggler write replaced the copy, so another pass must
// re-visit it).
//
// In production (exec.Doorbell maintenance) the walk is pipelined: one
// doorbell reads reshardScanBuckets buckets, one reads every live object
// behind them, and the owner-changed keys migrate as lock-step batches of
// migrate plans — bucket READs, object WRITEs, publishing CASes and
// source delete CASes each amortize their RTT across the batch. Any plan
// that hits a race or a full bucket is demoted to the serial per-slot
// path, so the pipelined walk produces the same results as the
// exec.Serial reference walk (one bucket, one object, one migration at a
// time).
func (mc *MultiCluster) migrateNode(m *MultiClient, srcID int, inserts *[]migratedCopy) int64 {
	src := m.clientFor(srcID)
	cl := mc.nodes[srcID]
	if src == nil || cl == nil {
		return 0
	}
	doorbell := maintenance == exec.Doorbell
	step := 1
	if doorbell {
		step = reshardScanBuckets
	}
	pending := int64(0)
	for b0 := 0; b0 < cl.Layout.Buckets; b0 += step {
		n := step
		if rem := cl.Layout.Buckets - b0; n > rem {
			n = rem
		}
		var chunk [][]hashtable.Slot
		if doorbell {
			bs := make([]int, n)
			for i := range bs {
				bs[i] = b0 + i
			}
			chunk = src.ht.ReadBuckets(bs)
		} else {
			chunk = [][]hashtable.Slot{src.ht.ReadBucket(b0)}
		}
		var live []hashtable.Slot
		for _, slots := range chunk {
			for _, s := range slots {
				if s.Atomic.IsEmpty() || s.Atomic.IsHistory() {
					continue
				}
				live = append(live, s)
			}
		}
		var objs [][]byte
		if doorbell {
			objs = src.readObjects(live)
		} else {
			objs = make([][]byte, len(live))
			for i, s := range live {
				objs[i] = src.readObject(s)
			}
		}
		// Collect the slots whose ring owner changed. Within one batch a
		// key may only appear once: two same-key plans in flight together
		// could each observe the other's fresh insert in its duplicate
		// sweep and both yield, losing the key. Extra copies (possible
		// transiently during a window) count as pending and are re-visited
		// by the next pass, after the first copy settled.
		var seen map[string]bool
		if doorbell {
			seen = make(map[string]bool)
		}
		type migItem struct {
			s     hashtable.Slot
			dec   decodedObject
			kh    uint64
			owner int
		}
		var items []migItem
		for i, s := range live {
			dec := decodeObject(objs[i])
			if !dec.ok {
				continue // reused memory behind a stale slot snapshot
			}
			kh := hashtable.KeyHash(dec.key)
			owner := mc.snap().hashRing.Owner(ring.Point(kh))
			if owner == srcID {
				continue
			}
			if doorbell {
				if seen[string(dec.key)] {
					pending++
					continue
				}
				seen[string(dec.key)] = true
			}
			items = append(items, migItem{s: s, dec: dec, kh: kh, owner: owner})
		}
		if !doorbell {
			for _, it := range items {
				pending += mc.migrateSlot(m, src, it.owner, it.s, it.dec, it.kh, inserts)
			}
			continue
		}
		for lo := 0; lo < len(items); lo += reshardBatch {
			hi := lo + reshardBatch
			if hi > len(items) {
				hi = len(items)
			}
			batch := items[lo:hi]
			plans := make([]*migratePlan, len(batch))
			run := make([]exec.Plan, len(batch))
			for j, it := range batch {
				plans[j] = newMigratePlan(src, m.clientFor(it.owner), it.s, it.dec)
				run[j] = plans[j]
			}
			m.runner.Doorbell.Run(run)
			for j, pl := range plans {
				it := batch[j]
				switch pl.outcome {
				case migMoved:
					*inserts = append(*inserts, migratedCopy{
						dstID: it.owner, kh: it.kh, fp: hashtable.Fingerprint(it.kh),
						key: pl.ins.key, addr: pl.ins.slotAddr, atom: pl.ins.want,
						tenant: pl.ins.tenant,
					})
					mc.MigratedKeys++
					pending++
				case migSkipped:
					// Destination already newer; source copy GC'd in-plan.
				default:
					// Complication (full bucket, lost CAS, source changed):
					// demote this slot to the serial retry path, which
					// re-reads and redoes the copy from a fresh snapshot.
					pending += mc.migrateSlot(m, src, it.owner, it.s, it.dec, it.kh, inserts)
				}
			}
		}
	}
	return pending
}

// migrateSlotRetries bounds the per-slot redo loop when the source copy
// keeps changing under the copy (straggler writes are finite — only
// operations in flight at the ring switch route to an old owner).
const migrateSlotRetries = 8

// migrateSlot moves one live object from src to node dstID with migrate
// plans run serially on the resharder's runner, retrying in place when
// the source copy is replaced mid-copy so a straggler write cannot be
// stranded on the old owner.
// Returns 1 when a copy moved (or retries were exhausted under sustained
// churn — pending work the pass loop revisits), 0 when the key turned out
// to be gone or already superseded on the destination.
func (mc *MultiCluster) migrateSlot(m *MultiClient, src *Client, dstID int, s hashtable.Slot, dec decodedObject,
	kh uint64, inserts *[]migratedCopy) int64 {

	dst := m.clientFor(dstID)
	for try := 0; try < migrateSlotRetries; try++ {
		pl := newMigratePlan(src, dst, s, dec)
		m.runner.Serial.Run(pl)
		switch pl.outcome {
		case migMoved:
			// Record for the verification sweep only now that the insert
			// SURVIVED — an entry for an undone insert would let the
			// sweep's precise CAS fire on an ABA reuse of the slot (same
			// fingerprint, same size class, recycled block address) and
			// delete an unrelated live object.
			*inserts = append(*inserts, migratedCopy{
				dstID: dstID, kh: kh, fp: hashtable.Fingerprint(kh),
				key: pl.ins.key, addr: pl.ins.slotAddr, atom: pl.ins.want,
				tenant: pl.ins.tenant,
			})
			mc.MigratedKeys++
			return 1
		case migSkipped:
			// The destination already held a newer client-written copy:
			// the source removal was garbage collection, not a migration,
			// and must not inflate the stat.
			return 0
		case migFallback:
			// Destination complication. For full buckets, make room the
			// way a blocked insert would; for a lost publish CAS, simply
			// re-attempt with a fresh snapshot (presence is re-checked).
			if pl.ins.outcome == setNoFree {
				if !dst.bucketEvict(pl.ins.scanned) {
					dst.reclaimOldestHistory(pl.ins.scanned)
				}
			}
		case migRetry:
			// The source slot changed while we copied it (the plan already
			// took back any stale insert). Re-read the slot: if it still
			// holds the same key (a straggler write replaced the value),
			// redo the copy with the fresh value; otherwise the key was
			// deleted, evicted or re-slotted and there is nothing to move.
			s2 := src.ht.ReadSlot(s.Addr)
			if s2.Atomic.IsEmpty() || s2.Atomic.IsHistory() || s2.Atomic.FP() != s.Atomic.FP() {
				return 0
			}
			obj := src.readObject(s2)
			dec2 := decodeObject(obj)
			if !dec2.ok || !bytes.Equal(dec2.key, dec.key) {
				return 0
			}
			s, dec = s2, dec2
		}
	}
	// Retries exhausted under sustained churn: report pending work so the
	// pass loop revisits this slot.
	return 1
}

// stayingNodes returns the active node IDs excluding one being drained —
// byte-budget changes granted to a node about to leave the pool would
// evaporate with it.
func (mc *MultiCluster) stayingNodes() []int {
	ids := make([]int, 0, len(mc.order))
	draining := mc.snap().draining
	for _, id := range mc.order {
		if id != draining {
			ids = append(ids, id)
		}
	}
	return ids
}

// GrowCache grows every surviving MN's heap by an equal share — memory
// elasticity across the pool.
func (mc *MultiCluster) GrowCache(bytes int) {
	ids := mc.stayingNodes()
	per := (bytes + len(ids) - 1) / len(ids)
	for _, id := range ids {
		mc.nodes[id].GrowCache(per)
	}
}

// ShrinkCache lowers every surviving MN's heap budget by an equal share —
// the pool-wide counterpart of GrowCache (see Cluster.ShrinkCache).
func (mc *MultiCluster) ShrinkCache(bytes int) {
	ids := mc.stayingNodes()
	per := (bytes + len(ids) - 1) / len(ids)
	for _, id := range ids {
		mc.nodes[id].ShrinkCache(per)
	}
}

// MultiClient routes operations to the MN owning each key. During a
// reshard it serves the forwarding window: Gets that miss on a key's new
// owner retry on its old owner, Sets go to the new owner only, Deletes
// clear the old copy before the new one. With hot-key replication
// enabled (replica.go) it additionally spreads reads of promoted keys
// across the primary and its replicas, and writes through to every copy.
type MultiClient struct {
	mc      *MultiCluster
	p       *sim.Proc
	clients map[int]*Client
	runner  exec.Runner // fan-outs spanning nodes: replica stores, migrations
	fanout  []exec.Plan // replica fan-out scratch
	repSets []*setPlan  // updateReplicas' plans, parallel to fanout
	tenant  TenantID    // bound tenant, propagated to every per-node client
	promo   []promoCand // hot-key promotion candidates queued by the hit hook
	owners  []int       // a candidate's ring owners, scratch for the replication gate
}

// promoCand is one queued hot-key promotion candidate: the key plus the
// owning tenant observed at the qualifying hit, so the promotion can
// stamp the hotset entry and the quota gate can veto replication for
// over-quota tenants. The key buffer belongs to the queue slot and is
// reused by later candidates.
type promoCand struct {
	key    []byte
	tenant TenantID
}

// NewClient connects process p to every current memory node; connections
// to nodes added later are opened lazily on first use. Enable hot-key
// replication (EnableHotKeyReplication) before creating clients: the
// promotion signal is installed at connection time.
func (mc *MultiCluster) NewClient(p *sim.Proc) *MultiClient {
	m := &MultiClient{mc: mc, p: p, clients: make(map[int]*Client)}
	for _, id := range mc.order {
		m.clients[id] = m.connect(id, mc.nodes[id])
	}
	return m
}

// connect opens one per-MN client to node id, wiring the hot-key
// promotion hook (which charges the hit to id) when replication is
// enabled.
func (m *MultiClient) connect(id int, cl *Cluster) *Client {
	c := cl.NewClient(m.p)
	if m.mc.hot != nil {
		c.onHit = func(key []byte, tenant TenantID, freq uint64) {
			m.noteHotCandidate(id, key, tenant, freq)
		}
	}
	if m.tenant != DefaultTenant {
		c.BindTenant(m.tenant)
	}
	return c
}

// clientFor returns the per-MN client for node id, connecting lazily. It
// returns nil when the node has left the pool.
func (m *MultiClient) clientFor(id int) *Client {
	if c, ok := m.clients[id]; ok {
		return c
	}
	cl, ok := m.mc.nodes[id]
	if !ok {
		return nil
	}
	c := m.connect(id, cl)
	m.clients[id] = c
	return c
}

// routeRetries bounds re-routing when a reshard switches the ring in the
// middle of an operation.
const routeRetries = 4

// owner returns the current owner of key under the routing ring, plus the
// old owner to forward to (-1 when no forwarding window applies).
func (m *MultiClient) owner(key []byte) (cur, old int) {
	return m.mc.snap().owner(key)
}

// Get fetches key from its owning MN. During a reshard a miss on the new
// owner is retried on the old owner, so a key in flight between MNs is
// always observable from one of the two. When hot-key replication is on,
// a promoted key's read may instead be served by one of its replicas
// (getSpread in replica.go); a replica miss falls back to the routed
// path below, so spreading never turns a present key into a miss.
func (m *MultiClient) Get(key []byte) ([]byte, bool) {
	if m.mc.hot != nil {
		m.drainPromotions()
		if v, ok, served := m.getSpread(key); served {
			return v, ok
		}
	}
	return m.getRouted(key)
}

// getFrom runs one Get (counting, or stat-silent probe) on c, degrading
// a node fail-stop mid-verb to a miss: the copy the verbs were chasing
// died with the node, which is what a miss means. The caller's epoch
// re-check then re-routes — CrashNode bumps the epoch — so the retried
// probe lands on the key's surviving owner.
func getFrom(c *Client, key []byte, probe bool) (v []byte, ok bool) {
	if rdma.CatchUnreachable(func() {
		if probe {
			v, ok = c.getProbe(key)
		} else {
			v, ok = c.Get(key)
		}
	}) != nil {
		return nil, false
	}
	return v, ok
}

// getRouted is the unreplicated Get path: route to the ring owner, serve
// the forwarding window during a reshard.
func (m *MultiClient) getRouted(key []byte) ([]byte, bool) {
	for attempt := 0; ; attempt++ {
		snap := m.mc.snap()
		cur, old := snap.owner(key)
		curClient := m.clientFor(cur)
		if old < 0 {
			if curClient != nil {
				if v, ok := getFrom(curClient, key, false); ok {
					return v, true
				}
			}
		} else {
			// Forwarding window: probe with stat-silent Gets so a key
			// still sitting on its old owner does not record a phantom
			// miss on the new owner for every forwarded hit. The key may
			// migrate old→new between the two probes; after a migration
			// it stays put, so one re-probe of the new owner settles that
			// race without amplifying genuine misses.
			if curClient != nil {
				if v, ok := getFrom(curClient, key, true); ok {
					return v, true
				}
			}
			if c := m.clientFor(old); c != nil {
				if v, ok := getFrom(c, key, true); ok {
					return v, true
				}
			}
			if curClient != nil {
				if v, ok := getFrom(curClient, key, true); ok {
					return v, true
				}
			}
		}
		// A ring switch mid-operation means we probed stale owners:
		// re-route and retry (bounded) before declaring a miss.
		if m.mc.snap().epoch == snap.epoch || attempt >= routeRetries {
			if old >= 0 || curClient == nil {
				// Either the probes were silent (forwarding window), or
				// the owner's client vanished mid-route and nothing ran
				// at all: count the one logical miss explicitly, so
				// Stats().HitRate() cannot overstate the hit rate during
				// a shrink.
				m.countMiss(cur, old)
			}
			return nil, false
		}
	}
}

// countMiss records one logical Get miss on a surviving client: the
// key's current owner when connected, else its old owner, else any node
// still in the pool. A Get that returns false must always increment
// Gets and Misses on SOME client — dropping it (as happened when the
// forwarding window closed around a just-removed node) silently inflated
// the aggregate hit rate. The miss also counts toward that node's
// ServedReads, keeping the per-node load ledger consistent with the
// non-windowed miss path.
func (m *MultiClient) countMiss(cur, old int) {
	c := m.clientFor(cur)
	if c == nil && old >= 0 {
		c = m.clientFor(old)
	}
	if c == nil {
		for _, id := range m.mc.order {
			if c = m.clientFor(id); c != nil {
				break
			}
		}
	}
	if c != nil {
		c.Stats.Gets++
		c.Stats.Misses++
		c.served.Inc()
	}
}

// MGet fetches a batch of keys: each key routes to its ring owner, and
// every owner serves its whole group with one doorbell-batched MGet.
// During a reshard the forwarding window is preserved with batched
// stat-silent probes, in Get's exact order — new owner, old owner, new
// owner again to settle the migration race — and every key that stays
// missing counts one logical miss on a surviving client.
func (m *MultiClient) MGet(keys [][]byte) ([][]byte, []bool) {
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, oks
	}
	var pending []int
	if m.mc.hot != nil {
		// Replicated keys spread to their rotation-chosen replicas first
		// (batched silent probes, replica.go); whatever misses — plus
		// every unreplicated key — continues through the routed path.
		m.drainPromotions()
		pending = m.mgetSpread(keys, vals, oks)
	} else {
		pending = make([]int, len(keys))
		for i := range keys {
			pending[i] = i
		}
	}
	for attempt := 0; ; attempt++ {
		snap := m.mc.snap()
		stable := make(map[int][]int) // cur owner → key indices, no window
		window := make(map[int][]int) // cur owner → key indices in a window
		oldOf := make(map[int]int)    // key index → old owner
		for _, i := range pending {
			cur, old := snap.owner(keys[i])
			if old < 0 {
				stable[cur] = append(stable[cur], i)
			} else {
				window[cur] = append(window[cur], i)
				oldOf[i] = old
			}
		}

		// Stable keys: one counting batch per owner; a nil client (owner
		// vanished mid-route) leaves the group's misses uncounted for the
		// final accounting below, like the probes.
		var counted, silent []int
		for _, owner := range snap.fanoutOrder(stable) {
			idxs, ok := stable[owner]
			if !ok {
				continue
			}
			missed, ran := m.mgetGroup(owner, idxs, keys, vals, oks, false)
			if ran {
				counted = append(counted, missed...)
			} else {
				silent = append(silent, missed...)
			}
		}

		// Forwarding window: silent probe batches on the new owners, the
		// old owners, then the new owners once more.
		var winMissed []int
		for _, owner := range snap.fanoutOrder(window) {
			idxs, ok := window[owner]
			if !ok {
				continue
			}
			missed, _ := m.mgetGroup(owner, idxs, keys, vals, oks, true)
			winMissed = append(winMissed, missed...)
		}
		for pass := 0; pass < 2 && len(winMissed) > 0; pass++ {
			regrouped := make(map[int][]int)
			for _, i := range winMissed {
				owner := oldOf[i]
				if pass == 1 { // final settle pass re-probes the new owner
					owner, _ = m.owner(keys[i])
				}
				regrouped[owner] = append(regrouped[owner], i)
			}
			winMissed = winMissed[:0]
			for _, owner := range snap.fanoutOrder(regrouped) {
				idxs, ok := regrouped[owner]
				if !ok {
					continue
				}
				missed, _ := m.mgetGroup(owner, idxs, keys, vals, oks, true)
				winMissed = append(winMissed, missed...)
			}
		}
		silent = append(silent, winMissed...)

		if m.mc.snap().epoch == snap.epoch || attempt >= routeRetries {
			// The silent misses (window probes, vanished owners) were
			// never counted: record one logical miss each on a surviving
			// client, as Get does.
			for _, i := range silent {
				cur, old := m.owner(keys[i])
				m.countMiss(cur, old)
			}
			return vals, oks
		}
		// A ring switch mid-batch: re-route every key still missing.
		pending = append(counted, silent...)
		sort.Ints(pending)
	}
}

// mgetGroup runs one batched (probe or counting) MGet for the given key
// indices on one node, filling vals/oks for hits. It returns the indices
// that missed and whether a client actually ran the batch (false when
// the node has left the pool, in which case nothing was counted).
func (m *MultiClient) mgetGroup(owner int, idxs []int, keys, vals [][]byte, oks []bool, probe bool) (missed []int, ran bool) {
	c := m.clientFor(owner)
	if c == nil {
		return idxs, false
	}
	sub := make([][]byte, len(idxs))
	for j, i := range idxs {
		sub[j] = keys[i]
	}
	var vs [][]byte
	var os []bool
	if rdma.CatchUnreachable(func() { vs, os = c.mget(sub, probe) }) != nil {
		// The node fail-stopped mid-batch: every copy it held died with
		// it. Report the whole group missed and uncounted; the caller's
		// epoch re-check re-routes to the surviving owners.
		return idxs, false
	}
	for j, i := range idxs {
		if os[j] {
			vals[i], oks[i] = vs[j], true
		} else {
			missed = append(missed, i)
		}
	}
	return missed, true
}

// MSet stores a batch of pairs: one doorbell-batched MSet per owning MN.
// During a reshard each windowed key's pre-reshard copy is deleted from
// its old owner after the write lands, exactly as Set does per key.
// Replicated keys are peeled off first and written through Set's
// replicated path one by one (hot keys are read-heavy by definition, so
// a batch rarely carries more than a few); the batch semantics of the
// rest are unchanged.
func (m *MultiClient) MSet(pairs []KV) {
	if len(pairs) == 0 {
		return
	}
	if m.mc.hot != nil {
		m.drainPromotions()
		// One atomic pass (no verbs): peel off currently-replicated pairs
		// and register the rest, so a promotion published after this
		// instant either sees the registration or is found by m.Set.
		rest := make([]KV, 0, len(pairs))
		var hot []KV
		for _, kv := range pairs {
			m.mc.hot.NoteWrite(hashtable.KeyHash(kv.Key))
			if m.mc.hot.Lookup(kv.Key) != nil {
				hot = append(hot, kv)
			} else {
				m.mc.hot.BeginWrite(hashtable.KeyHash(kv.Key))
				rest = append(rest, kv)
			}
		}
		for _, kv := range hot {
			m.Set(kv.Key, kv.Value)
		}
		m.msetDirect(rest)
		// Promotions racing the batch may have snapshotted pre-write
		// values: repair every just-written key's entry, as Set does,
		// each before its own unregistration.
		var firstErr error
		for i := range rest {
			if err := m.resyncAfterWrite(rest[i].Key); err != nil && firstErr == nil {
				firstErr = err
			}
			m.mc.hot.EndWrite(hashtable.KeyHash(rest[i].Key))
		}
		raise(firstErr)
		return
	}
	m.msetDirect(pairs)
}

// msetDirect is the unreplicated MSet path. The reshard's straggler-pass
// safety net assumes a write's routing decision is at most one
// operation's span stale; a multi-group batch could stretch that
// arbitrarily, so the epoch is re-checked before each group and the
// remaining pairs re-route serially after a mid-batch ring switch — the
// residual window is then one group's span, the same bound a serial Set
// has.
func (m *MultiClient) msetDirect(pairs []KV) {
	if len(pairs) == 0 {
		return
	}
	snap := m.mc.snap()
	groups := make(map[int][]int)
	oldOf := make(map[int]int)
	for i := range pairs {
		cur, old := snap.owner(pairs[i].Key)
		groups[cur] = append(groups[cur], i)
		if old >= 0 {
			oldOf[i] = old
		}
	}
	owners := snap.fanoutOrder(groups)
	for gi, owner := range owners {
		idxs := groups[owner]
		if len(idxs) == 0 {
			continue
		}
		c := m.clientFor(owner)
		if m.mc.snap().epoch != snap.epoch || c == nil {
			// The ring switched (or the owner left the pool) while earlier
			// groups' verbs were in flight: every remaining routing
			// decision is stale. Re-route the rest per pair — Set routes
			// at issue time, restoring the design's staleness bound.
			for _, o := range owners[gi:] {
				for _, i := range groups[o] {
					m.Set(pairs[i].Key, pairs[i].Value)
				}
			}
			return
		}
		sub := make([]KV, len(idxs))
		for j, i := range idxs {
			sub[j] = pairs[i]
		}
		if rdma.CatchUnreachable(func() { c.MSet(sub) }) != nil {
			// The owner fail-stopped mid-batch; none of this group's
			// outcomes are knowable. CrashNode has already re-routed the
			// key space, so store the group (and everything after it)
			// per pair against the new owners.
			for _, o := range owners[gi:] {
				for _, i := range groups[o] {
					m.Set(pairs[i].Key, pairs[i].Value)
				}
			}
			return
		}
		for _, i := range idxs {
			if old, windowed := oldOf[i]; windowed {
				if oc := m.clientFor(old); oc != nil {
					_ = rdma.CatchUnreachable(func() { oc.Delete(pairs[i].Key) })
				}
			}
		}
	}
}

// sortedNodeIDs returns a node-keyed map's IDs in ascending order — the
// one deterministic-iteration helper for maps that may hold departed
// nodes (Close, Stats, the resharder's free-list surrender over
// connected clients) and routeSnapshot.fanoutOrder's stray-owner
// fallback. The operation fan-outs themselves iterate the snapshot's
// cached members instead of sorting per call.
func sortedNodeIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	//dittolint:allow simdet (this helper IS the sanctioned pattern: the keys are sorted before any caller iterates them)
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Set stores key on its owning MN. When the key is replicated, the write
// goes through the primary first and then updates every replica before
// returning (setReplicated in replica.go), all under the key's entry
// lock — so after any completed Set, every copy a spread read can reach
// holds the written value. A write that found no entry runs unreplicated
// and registered (BeginWrite, atomically with the nil lock result), and
// repairs any entry a racing promotion published meanwhile
// (resyncAfterWrite) before unregistering and returning.
func (m *MultiClient) Set(key, value []byte) {
	raise(m.TrySet(key, value))
}

// TrySet is Set with crash-time failures surfaced as errors instead of
// panics: when the key's owner fail-stops mid-write, it returns an error
// satisfying IsUnavailable (the write may or may not have landed — the
// node took the answer with it), and the caller retries after the pool
// reconfigures. Internal bookkeeping (entry locks, write registrations)
// is always released before the error returns, so a failed TrySet never
// wedges later writers.
func (m *MultiClient) TrySet(key, value []byte) error {
	var serr error
	if err := catchUnavailable(func() { serr = m.set(key, value) }); err != nil {
		return err
	}
	return serr
}

func (m *MultiClient) set(key, value []byte) error {
	if m.mc.hot == nil {
		m.setDirect(key, value)
		return nil
	}
	m.drainPromotions()
	kh := hashtable.KeyHash(key)
	m.mc.hot.NoteWrite(kh)
	if e := m.mc.hot.Lock(m.p, key); e != nil {
		return m.setReplicated(e, key, value)
	}
	m.mc.hot.BeginWrite(kh)
	err := catchUnavailable(func() { m.setDirect(key, value) })
	if err == nil {
		err = m.resyncAfterWrite(key)
	}
	m.mc.hot.EndWrite(kh)
	return err
}

// setDirect is the unreplicated Set path. During a reshard the new owner
// gets the write and any pre-reshard copy on the old owner is deleted,
// so a later eviction of the fresh value cannot let the resharder
// resurrect the superseded one. (The resharder's source CAS fails once
// the old copy is gone, and its insert-if-absent never overwrites the
// write; a write racing a migrated insert into a different slot may be
// shadowed until the reshard's verification sweep — see the package
// comment.)
func (m *MultiClient) setDirect(key, value []byte) {
	cur, old := m.owner(key)
	c := m.clientFor(cur)
	if c == nil {
		// Reads degrade when a routed owner has no backing node (the miss
		// is counted on a survivor), but a write has nowhere to land: the
		// ring and the membership switch atomically, so this is a
		// corrupted deployment — fail loudly and typed, not with a nil
		// dereference (TrySet converts this back into an error).
		panic(&NoOwnerError{Node: cur})
	}
	c.Set(key, value)
	if old >= 0 {
		if oc := m.clientFor(old); oc != nil {
			// A pre-reshard copy on an old owner that fail-stops mid-delete
			// died with the node — the cleanup's goal is already met.
			_ = rdma.CatchUnreachable(func() { oc.Delete(key) })
		}
	}
}

// Delete removes key from its owning MN. A replicated key is demoted
// first — its replicas are invalidated under the entry lock BEFORE the
// primary copy is cleared, so no spread read can hit a replica after the
// delete returns — and the span is registered like an unreplicated
// write, so a promotion racing the delete publishes warming and is then
// repaired before returning: resyncAfterWrite finds the primary gone
// and demotes the entry.
func (m *MultiClient) Delete(key []byte) bool {
	if m.mc.hot == nil {
		return m.deleteDirect(key)
	}
	e := m.mc.hot.Lock(m.p, key)
	kh := hashtable.KeyHash(key)
	m.mc.hot.BeginWrite(kh)
	if e != nil {
		m.demoteLocked(e)
	}
	ok := m.deleteDirect(key)
	// The registration is released before a repair failure surfaces: a
	// forever-registered write would pin a racing promotion's entry
	// warming permanently.
	err := m.resyncAfterWrite(key)
	m.mc.hot.EndWrite(kh)
	raise(err)
	return ok
}

// deleteDirect is the unreplicated Delete path. During a reshard both
// owners are cleared, old copy first — that ordering, combined with the
// resharder's verify-then-undo CAS discipline, ensures a racing
// migration cannot durably resurrect the deleted key (the dead value may
// flicker back for the few verb round trips between the resharder's
// insert and its undo, but never outlives the reshard).
func (m *MultiClient) deleteDirect(key []byte) bool {
	cur, old := m.owner(key)
	deleted := false
	// An owner that fail-stops mid-delete achieves the deletion by dying:
	// its copy is gone either way, so the unreachable error degrades to
	// "nothing was there".
	if old >= 0 {
		if c := m.clientFor(old); c != nil {
			_ = rdma.CatchUnreachable(func() { deleted = c.Delete(key) })
		}
	}
	if c := m.clientFor(cur); c != nil {
		_ = rdma.CatchUnreachable(func() {
			if c.Delete(key) {
				deleted = true
			}
		})
	}
	return deleted
}

// MDelete removes a batch of keys: one doorbell-batched MDelete per
// owning MN. Replicated keys are demoted first (replicas invalidated
// before any primary copy is cleared), the whole batch is registered,
// and raced promotions are repaired after, per key, exactly as Delete
// does.
func (m *MultiClient) MDelete(keys [][]byte) []bool {
	if m.mc.hot == nil {
		return m.mdeleteDirect(keys)
	}
	for _, k := range keys {
		e := m.mc.hot.Lock(m.p, k)
		m.mc.hot.BeginWrite(hashtable.KeyHash(k))
		if e != nil {
			m.demoteLocked(e)
		}
	}
	out := m.mdeleteDirect(keys)
	// Every registration is released — a repair failure on one key must
	// not strand the rest of the batch registered — before the first
	// failure surfaces.
	var firstErr error
	for _, k := range keys {
		if err := m.resyncAfterWrite(k); err != nil && firstErr == nil {
			firstErr = err
		}
		m.mc.hot.EndWrite(hashtable.KeyHash(k))
	}
	raise(firstErr)
	return out
}

// mdeleteDirect is the unreplicated MDelete path. During a reshard each
// windowed key is also cleared on its old owner FIRST, batched per old
// owner, preserving Delete's per-key ordering (old copy before current
// copy) so a racing migration cannot durably resurrect a deleted key.
// Like MSet, the epoch is re-checked before each group: after a
// mid-batch ring switch every remaining routing decision is stale, so
// the rest re-routes per key — otherwise a key migrated to a new owner
// between routing and issue would survive its own deletion.
func (m *MultiClient) mdeleteDirect(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	if len(keys) == 0 {
		return out
	}
	snap := m.mc.snap()
	groups := make(map[int][]int) // current owner → key indices
	oldGroups := make(map[int][]int)
	for i := range keys {
		cur, old := snap.owner(keys[i])
		groups[cur] = append(groups[cur], i)
		if old >= 0 {
			oldGroups[old] = append(oldGroups[old], i)
		}
	}
	type delGroup struct {
		owner int
		idxs  []int
		cur   bool // a current-owner group: completes its keys
	}
	var seq []delGroup
	for _, owner := range snap.fanoutOrder(oldGroups) {
		if idxs, ok := oldGroups[owner]; ok {
			seq = append(seq, delGroup{owner: owner, idxs: idxs})
		}
	}
	for _, owner := range snap.fanoutOrder(groups) {
		if idxs, ok := groups[owner]; ok {
			seq = append(seq, delGroup{owner: owner, idxs: idxs, cur: true})
		}
	}
	done := make([]bool, len(keys)) // current-owner batch ran for this key
	for _, g := range seq {
		c := m.clientFor(g.owner)
		if m.mc.snap().epoch != snap.epoch || (c == nil && g.cur) {
			// The ring switched (or a current owner left the pool) while
			// earlier groups' verbs were in flight. Delete routes at issue
			// time — re-route every unfinished key per key, restoring the
			// design's staleness bound (re-clearing an old copy is
			// idempotent).
			for i := range keys {
				if !done[i] && m.Delete(keys[i]) {
					out[i] = true
				}
			}
			return out
		}
		if c == nil {
			continue // an old owner left the pool: nothing to clear there
		}
		sub := make([][]byte, len(g.idxs))
		for j, i := range g.idxs {
			sub[j] = keys[i]
		}
		var oks []bool
		if rdma.CatchUnreachable(func() { oks = c.MDelete(sub) }) != nil {
			// The node fail-stopped mid-batch: every copy it held is gone,
			// which is the post-state a delete wants. Presence answers for
			// this group are lost (out stays false) and the keys are left
			// not-done, so a concurrent ring switch re-routes them above.
			continue
		}
		for j, ok := range oks {
			if ok {
				out[g.idxs[j]] = true
			}
		}
		if g.cur {
			for _, i := range g.idxs {
				done[i] = true
			}
		}
	}
	return out
}

// Close flushes buffered client state on every connected MN. Flushes to
// nodes that fail-stopped (or left the pool) are skipped — their remote
// state died with them.
func (m *MultiClient) Close() {
	for _, id := range sortedNodeIDs(m.clients) {
		c := m.clients[id]
		if c.cl.dead {
			continue
		}
		_ = rdma.CatchUnreachable(func() { c.Close() })
	}
}

// Stats aggregates per-MN client stats.
func (m *MultiClient) Stats() Stats {
	var s Stats
	for _, id := range sortedNodeIDs(m.clients) {
		s.Add(m.clients[id].Stats)
	}
	return s
}

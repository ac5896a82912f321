package core

// Hot-key replication with load-aware read spreading.
//
// The consistent-hash ring (internal/ring) maps every key to exactly one
// memory node, so a zipfian workload saturates the node owning the hot
// tail while its peers idle. This layer relieves that skew with the
// hotness signal Ditto's clients already maintain (§4.2.2/§4.3): when a
// hit's logical frequency — remote snapshot + pending FC-cache delta +
// this hit, the accounting convention shared by noteHit/updateExt —
// crosses MultiCluster.HotThreshold, and the replication gate finds that
// spreading the key relieves the busiest of its nodes (below), the key
// is PROMOTED: its value is
// materialized on the R ring-successor nodes of its primary owner
// (ring.OwnersN) and recorded in the cluster-shared hot-key directory
// (internal/hotset). Reads of a promoted key then rotate across the
// primary and its replicas (spreading the RNIC load 1/(1+R)); writes go
// through the primary first and then update every replica with
// publish-CAS-ordered verb plans — the same setPlan/delPlan declared in
// plan.go — executed as one doorbell round per stage across the replica
// endpoints.
//
// Observable equivalence with the unreplicated cache rests on one
// invariant: AFTER ANY COMPLETED WRITE, EVERY COPY A SPREAD READ CAN
// REACH EQUALS THAT WRITE. It is maintained by:
//
//   - Per-key write serialization: writers and maintainers hold the
//     hotset entry lock across primary write + replica fan-out, so
//     replica update order cannot diverge across concurrent writers.
//   - Invalidate-first write-through: a replicated write, under the
//     entry lock, DELETES every replica copy before its primary
//     publishing CAS and only then re-materializes them. A spreadable
//     replica therefore only ever holds the primary's current value or
//     nothing (a probe miss falls back to the primary): once a reader
//     has seen a new value from any copy, no copy can serve the old one
//     — reads stay monotonic with no reader-side locking. Without the
//     invalidation, a reader could see the primary's new value and then
//     a not-yet-updated replica's old one mid-fan-out: a non-monotonic
//     pair no single-copy cache can produce.
//   - Write-repair + warming: a writer that found NO entry runs
//     unreplicated but REGISTERED (hotset.BeginWrite — pure
//     bookkeeping, nothing ever blocks on it, so promotion cannot
//     starve even when hot keys always have writes in flight), then
//     re-checks the directory after its publishing CAS and, if an entry
//     appeared meanwhile, repairs it before returning: re-read the
//     primary under the entry lock and push its CURRENT value (not the
//     writer's own — concurrent repairs then converge regardless of
//     lock order) to every replica. The registry closes the divergence
//     window the lock cannot see: promotion publishes its entry as
//     WARMING when any registered write is in flight at publish time,
//     readers refuse to spread from warming entries, and the entry
//     turns spreadable only when a repair or replicated fan-out
//     completes with no other registered writer left — a lock-held
//     moment at which every copy provably equals the primary, after
//     which unreplicated writers can no longer exist (any new writer
//     finds the entry and goes through the lock). Entries are BORN
//     warming: materialization itself is a fan-out over copies readers
//     must not spread to yet.
//   - Epoch staleness: entries record the routing epoch of promotion. A
//     ring switch bumps the epoch, so readers refuse to spread from
//     stale entries and writers demote them on first touch. Promotions
//     are refused while a reshard window is open, an in-flight
//     promotion self-demotes on the epoch change, and the resharder
//     demotes every entry — dissolving every replica copy — BEFORE its
//     migration scan begins (demoteAll), so the scan only ever
//     encounters single copies: a replica copy reaching the scan could
//     make the authoritative primary copy look like a migration
//     duplicate and get it garbage-collected.
//
// The replication gate (hotset.Spreads) makes replication load-aware in
// both directions. Every hit any client observes is charged to the node
// that served it in the directory's per-node ledger, and every replicated
// write charges each replica its write-through cost; the ledger ages
// with the admission sketch's window W = 16 × maxHotKeys × HotThreshold
// hits. A candidate is promoted only if spreading it lowers the
// projected load of the busiest node among its primary and replicas,
// with the key's writes priced at the pool's write fraction (and, for a
// written key, by more than that node's counting noise). An entry is
// demoted when the same test fails on its own counts: at every window
// boundary (the entry is marked Unfit and the next toucher demotes it),
// and on each write once it has absorbed demoteMinWrites in the window.
// On a pool the ring already balances — perfbench read-hot, busiest node
// 1.085× the mean with replication off — the gate promotes a handful of
// keys instead of filling the directory, so Sets stop paying
// write-throughs that buy no balance. A replica miss (copy not yet
// materialized, or evicted) silently falls back to the primary —
// spreading can never turn a present key into a miss.
//
// Admission: on a full directory a candidate must displace the
// least-recently-read entry, and it may do so only when the directory's
// TinyLFU sketch (hotset.Admit) estimates its recent hit frequency
// strictly above that victim's. Every hit any client observes — primary
// or spread — feeds the sketch (noteHotCandidate), which halves its
// counters every W hits, so the estimates follow the workload's current
// hot set. Without admission, a hot set larger than the directory
// thrashes it: each promotion demotes a key that re-qualifies on its
// next hit, paying an invalidation and a materialization per swap. A
// candidate that loses admission or the gate is rejected before any
// verb is issued and re-tried on a later hit.

import (
	"fmt"

	"ditto/internal/hashtable"
	"ditto/internal/hotset"
	"ditto/internal/rdma"
	"ditto/internal/ring"
)

// defaultMaxHotKeys bounds the hot-key directory when
// EnableHotKeyReplication is given no explicit capacity. The hot tail of
// a zipfian workload is short — a few hundred keys cover most of the
// skewed mass — and every entry costs 1+R object copies of heap.
const defaultMaxHotKeys = 256

// promoQueueCap bounds the per-operation promotion candidate queue; hits
// beyond it re-candidate on a later operation.
const promoQueueCap = 16

// demoteMinWrites is how many write-throughs an entry must absorb in
// the gate's window before each further write re-judges it (Keeps).
// The gate prices a write-through at hotset's writeThroughCost, ≈9 verbs
// per replica (invalidate + re-materialize) against a spread read's 2–4;
// a handful of writes after a promotion are too few to tell a
// write-heavy key from noise, and judging on every write would demote a
// freshly promoted key on its first write, before it served any spread
// read.
const demoteMinWrites = 16

// EnableHotKeyReplication turns on hot-key replication: a key whose hit
// frequency reaches threshold, and whose spreading lowers the projected
// load of the busiest node among its primary owner and the factor
// ring-successor nodes (the replication gate, which prices the key's
// writes at the pool's write fraction), is copied to those successors
// and its reads spread across all copies; an entry that stops passing
// the gate is demoted. maxHotKeys caps the directory (defaultMaxHotKeys
// when <= 0); once it is full, a candidate replaces the
// least-recently-read entry only if its recent hit frequency, estimated
// by a TinyLFU sketch that halves every 16 × maxHotKeys × threshold
// hits, is strictly higher. The gate's per-node load ledger ages with
// the same window. Call it
// before creating clients — the promotion signal is installed when a
// client connects. Replication is usable on a single-node pool (it just
// never promotes) and survives AddNode/RemoveNode: a ring switch demotes
// every entry and still-hot keys re-promote under the new ring.
func (mc *MultiCluster) EnableHotKeyReplication(factor int, threshold uint64, maxHotKeys int) {
	if factor < 1 {
		factor = 1
	}
	if threshold < 1 {
		threshold = 1
	}
	if maxHotKeys <= 0 {
		maxHotKeys = defaultMaxHotKeys
	}
	mc.ReplicaFactor = factor
	mc.HotThreshold = threshold
	mc.hot = hotset.New(mc.Env, maxHotKeys, threshold)
	for _, id := range mc.order {
		mc.installEvictHook(id, mc.nodes[id])
	}
}

// installEvictHook points one node's eviction-victim hook at the hot-key
// directory: evicting a promoted key's primary copy flags its entry so
// the next directory touch demotes it — otherwise the replicas would
// keep serving a key the cache decided to drop. The hook sees only the
// victim's key hash (slots store no key bytes) and must not issue verbs,
// so it marks and returns; every eviction path (sample plans, the
// background reclaimer, bucket evictions) reports through it.
func (mc *MultiCluster) installEvictHook(id int, cl *Cluster) {
	cl.onEvictHash = func(kh uint64) { mc.hot.MarkPrimaryEvicted(id, kh) }
}

// noteHotCandidate is the Client.onHit hook of the per-node client for
// node: it feeds every hit to the directory's admission sketch, charges
// it to node in the gate's ledger, and queues a key for promotion when
// its observed hit frequency crosses the threshold and it would win both
// admission and the replication gate. It must not issue verbs (it runs inside the hit path), so
// the promotion itself — which reads the value and materializes copies
// — is deferred to drainPromotions at the next operation boundary. The
// hit's decoded tenant rides along: replication multiplies a key's
// footprint by 1+R, so an over-quota tenant's keys are refused
// promotion — a noisy neighbor cannot amplify its own overage through
// the hot tail. A rejected candidate costs a few sketch probes and no
// allocation: the queue's slots and key buffers are reused.
func (m *MultiClient) noteHotCandidate(node int, key []byte, tenant TenantID, freq uint64) {
	mc := m.mc
	kh := hashtable.KeyHash(key)
	mc.hot.Hit(kh, node)
	route := mc.snap()
	if freq < mc.HotThreshold || route.oldRing != nil || mc.NumNodes() < 2 {
		return
	}
	if mc.TenantOverQuota(tenant) {
		return
	}
	if mc.hot.Lookup(key) != nil || len(m.promo) >= promoQueueCap {
		return
	}
	if _, ok := mc.admit(kh); !ok {
		return
	}
	if !m.gate(route, kh) {
		return
	}
	if n := len(m.promo); n < cap(m.promo) {
		m.promo = m.promo[:n+1]
	} else {
		m.promo = append(m.promo, promoCand{})
	}
	c := &m.promo[len(m.promo)-1]
	c.key = append(c.key[:0], key...)
	c.tenant = tenant
}

// admit applies the directory's admission rule (hotset.Admit) to the
// candidate with key hash kh, counting a rejection by the sketch in
// AdmissionRejects. ok=false with a nil victim means every entry is
// under maintenance, which is no rejection.
func (mc *MultiCluster) admit(kh uint64) (victim *hotset.Entry, ok bool) {
	victim, ok = mc.hot.Admit(kh)
	if !ok && victim != nil {
		mc.AdmissionRejects++
	}
	return victim, ok
}

// gate applies the replication gate (hotset.Spreads) to the candidate
// with key hash kh under route's ring, counting a rejection in
// GateRejects. The owners land in m.owners, which promote reuses.
func (m *MultiClient) gate(route *routeSnapshot, kh uint64) bool {
	mc := m.mc
	m.owners = route.hashRing.AppendOwnersN(m.owners[:0], ring.Point(kh), 1+mc.ReplicaFactor)
	if len(m.owners) < 2 {
		return false // single-node pool: nothing to spread to
	}
	if !mc.hot.Spreads(kh, m.owners[0], m.owners[1:]) {
		mc.GateRejects++
		return false
	}
	return true
}

// drainPromotions promotes every queued candidate. Called at the top of
// Get/MGet/Set/MSet, so promotion verbs never extend the operation that
// detected the hotness. The queue is emptied in place: its slots (and
// their key buffers) serve the next candidates.
func (m *MultiClient) drainPromotions() {
	for i := 0; i < len(m.promo); i++ {
		m.promote(m.promo[i].key, m.promo[i].tenant)
	}
	m.promo = m.promo[:0]
}

// promote materializes key's value on its ring-successor nodes and
// publishes the hotset entry. The entry is inserted "born locked", so no
// writer can interleave with materialization; unreplicated writes
// already in flight are reconciled by their own write-repair re-check
// (see the file comment). Promotion aborts when the key is gone (deleted
// or evicted since the qualifying hit) and demotes itself when a ring
// switch lands mid-materialization.
func (m *MultiClient) promote(key []byte, tenant TenantID) {
	mc := m.mc
	if mc.snap().oldRing != nil || mc.hot.Lookup(key) != nil {
		return
	}
	if mc.TenantOverQuota(tenant) {
		return // usage moved since the qualifying hit; re-candidate later
	}
	// Capture the epoch BEFORE deriving the successor list: everything
	// from here to Insert can yield (the victim demotions below issue
	// verbs), and a ring switch in one of those yields must make the
	// entry's final epoch check fail — an entry recording the
	// post-switch epoch over pre-switch owners would evade both that
	// check and the resharder's window-opening sweep, putting replica
	// copies in front of the migration scan.
	route := mc.snap()
	epoch := route.epoch
	kh := hashtable.KeyHash(key)
	// Loads moved since the queueing hit (other promotions, demotions):
	// re-check the gate before any verb.
	if !m.gate(route, kh) {
		return
	}
	primary, replicas := m.owners[0], append([]int(nil), m.owners[1:]...)
	now := m.p.Now()
	// Full directory: demote the least-recently-read entry to make room,
	// but only for a candidate the sketch ranks strictly hotter (the
	// sketch moved since the queueing hit, so admission is re-checked).
	for mc.hot.Len() >= mc.hot.Limit() {
		v, ok := mc.admit(kh)
		if !ok {
			return // rejected, or every entry under maintenance; retry on a later hit
		}
		if e := mc.hot.Lock(m.p, v.Key); e != nil {
			m.demoteLocked(e)
		}
	}
	// The demotions above may have yielded: re-validate before the
	// atomic (yield-free) check-and-insert.
	if cur := mc.snap(); cur.oldRing != nil || cur.epoch != epoch {
		return
	}
	e := &hotset.Entry{
		Key:      append([]byte(nil), key...),
		KeyHash:  kh,
		Epoch:    epoch,
		Primary:  primary,
		Replicas: replicas,
		Tenant:   byte(tenant),
	}
	e.Touch(now) // not Victim's immediate minimum before its first read
	// Born warming: no reader may spread until materialization is
	// complete AND no unreplicated write that could supersede the
	// snapshot is in flight.
	e.Warming = true
	if !mc.hot.Insert(m.p, e) {
		return // raced another promoter
	}
	val, ok := m.readQuiet(e.Primary, key)
	if !ok {
		mc.hot.Remove(e) // key vanished since the qualifying hit
		return
	}
	if err := m.updateReplicas(e, key, val); err != nil {
		// Promotion is opportunistic maintenance: a fan-out that cannot
		// be driven to completion must not take down the reader whose
		// hit triggered it. Take the copies back; the underlying fault
		// resurfaces loudly on the next direct write.
		m.demoteLocked(e)
		return
	}
	if e.Epoch != mc.snap().epoch {
		// A reshard window opened mid-materialization: the copies sit on
		// successors of a ring that is already being replaced. Take them
		// back rather than publish a stale entry.
		m.demoteLocked(e)
		return
	}
	// An unreplicated write in flight right now may have published a
	// value our snapshot predates: stay warming (readers won't spread)
	// until that writer's repair — or a later replicated fan-out —
	// observes write-quiescence and clears it.
	e.Warming = mc.hot.InflightWrites(kh) > 0
	mc.hot.Unlock(e)
	mc.Promotions++
}

// getSpread serves one read of a replicated key from its rotation-chosen
// copy. served=false falls back to the routed (primary) path: the key is
// not replicated, its entry is stale, the rotation chose the primary
// itself, or the chosen replica missed (copy not yet materialized, or
// evicted) — a replica miss is silent (getProbe), so the fall-back
// counts exactly one logical operation, like an unreplicated Get.
func (m *MultiClient) getSpread(key []byte) (val []byte, ok, served bool) {
	mc := m.mc
	e := mc.hot.Lookup(key)
	if e == nil {
		return nil, false, false
	}
	if s := mc.snap(); e.Epoch != s.epoch || s.oldRing != nil {
		m.demoteKey(key) // ring moved under the replica set
		return nil, false, false
	}
	if e.Evicted || e.Unfit {
		// The primary copy was evicted — the cache dropped this key, so
		// the replicas must not resurrect it — or the gate found the
		// spreading no longer pays. Dissolve the copies and fall back to
		// the routed path (which misses after an eviction, as an
		// unreplicated cache would).
		m.demoteKey(key)
		return nil, false, false
	}
	if e.Warming {
		// Pre-entry writes may not have been repaired into the copies
		// yet: serve through the primary until the entry validates.
		e.NoteRead(m.p.Now())
		return nil, false, false
	}
	target := e.ReadTarget(m.p.Now())
	if target == e.Primary {
		return nil, false, false
	}
	c := m.clientFor(target)
	if c == nil {
		return nil, false, false
	}
	var v []byte
	var hit bool
	if rdma.CatchUnreachable(func() { v, hit = c.getProbe(key) }) != nil {
		// The replica fail-stopped mid-probe: its copy died with it. Fall
		// back to the primary; the stale entry demotes on a later touch.
		return nil, false, false
	}
	if hit {
		mc.SpreadReads++
		return v, true, true
	}
	return nil, false, false
}

// mgetSpread is getSpread over a batch: replica-targeted keys are probed
// with one batched stat-silent MGet per chosen node, hits fill
// vals/oks, and every other index — unreplicated, stale-entry,
// primary-targeted, or probe-missed — is returned for the routed path.
func (m *MultiClient) mgetSpread(keys [][]byte, vals [][]byte, oks []bool) []int {
	mc := m.mc
	remaining := make([]int, 0, len(keys))
	var groups map[int][]int
	for i := range keys {
		e := mc.hot.Lookup(keys[i])
		if e == nil {
			remaining = append(remaining, i)
			continue
		}
		if s := mc.snap(); e.Epoch != s.epoch || s.oldRing != nil || e.Evicted || e.Unfit {
			m.demoteKey(keys[i])
			remaining = append(remaining, i)
			continue
		}
		if e.Warming {
			e.NoteRead(m.p.Now())
			remaining = append(remaining, i)
			continue
		}
		target := e.ReadTarget(m.p.Now())
		if target == e.Primary || m.clientFor(target) == nil {
			remaining = append(remaining, i)
			continue
		}
		if groups == nil {
			groups = make(map[int][]int)
		}
		groups[target] = append(groups[target], i)
	}
	for _, node := range mc.snap().fanoutOrder(groups) {
		idxs, ok := groups[node]
		if !ok {
			continue
		}
		missed, ran := m.mgetGroup(node, idxs, keys, vals, oks, true)
		if ran {
			mc.SpreadReads += int64(len(idxs) - len(missed))
		}
		remaining = append(remaining, missed...)
	}
	return remaining
}

// setReplicated writes one replicated key with e's lock HELD, in
// invalidate-first order: delete every replica copy, publish the
// primary's CAS, then re-materialize the replicas. From the moment the
// new value is readable on the primary, every replica is empty or
// already updated — a spread read can never return the superseded
// value, and after the unlock every copy equals this write. Stale
// entries, and entries the gate no longer keeps, are demoted instead
// (the demote's invalidation also completes before the write returns).
// The gate re-judges an entry on every write once it has absorbed
// demoteMinWrites of them in the window, so a key whose writes turn its
// spreading into a net load is demoted without waiting for the window
// to close.
func (m *MultiClient) setReplicated(e *hotset.Entry, key, value []byte) error {
	mc := m.mc
	// An Evicted entry counts as stale: its primary copy is gone, so the
	// copy set must be dissolved before this write lands unreplicated.
	route := mc.snap()
	stale := e.Epoch != route.epoch || route.oldRing != nil || e.Evicted
	unfit := e.Unfit || e.Writes >= demoteMinWrites && !mc.hot.Keeps(e)
	// A tenant that went over quota since promotion loses its replica
	// copies on the next write-through: demotion dissolves the 1+R-copy
	// amplification of its footprint, the same direction quota eviction
	// pushes from below.
	overQuota := mc.TenantOverQuota(TenantID(e.Tenant))
	if stale || unfit || overQuota {
		// Demote, then store unreplicated — registered for the store's
		// span exactly like Set's no-entry branch, so a promotion that
		// re-publishes this key mid-store comes up warming and is
		// repaired before this write returns. A node fail-stop mid-store
		// must not leak the registration (a forever-registered write
		// would pin the entry warming permanently), so the registration
		// is released before the typed failure resurfaces.
		kh := e.KeyHash
		m.demoteLocked(e)
		mc.hot.BeginWrite(kh)
		err := catchUnavailable(func() { m.setDirect(key, value) })
		if err == nil {
			err = m.resyncAfterWrite(key)
		}
		mc.hot.EndWrite(kh)
		return err
	}
	mc.hot.ChargeWriteThrough(e)
	m.invalidateReplicas(e) // replicas empty before the new value is readable
	if err := catchUnavailable(func() { m.setDirect(key, value) }); err != nil {
		// The primary's owner fail-stopped before the write landed. The
		// replicas are already invalidated — no copy can serve the old
		// value — so dissolving the entry (which releases the lock, so
		// future writers are not deadlocked behind a live-but-failed
		// owner) leaves the key simply absent, then the typed failure
		// surfaces to the caller.
		m.demoteLocked(e)
		return err
	}
	if err := m.updateReplicas(e, key, value); err != nil {
		// The primary holds the new value but the fan-out could not be
		// driven to completion (a misconfigured table). Dissolve the
		// copy set — the key stays correct unreplicated — and surface
		// the configuration fault.
		m.demoteLocked(e)
		return err
	}
	if e.Warming && mc.hot.InflightWrites(e.KeyHash) == 0 {
		// Every pre-entry writer has completed (and repaired): our
		// fan-out just made all copies equal to the primary, so the
		// entry is safe to spread from.
		e.Warming = false
	}
	mc.hot.Unlock(e)
	return nil
}

// updateReplicas stores (key, value) on every replica node of e as a
// fan-out of ordinary setPlans (plan.go) run as doorbell rounds; any
// plan that hits a complication (full bucket, lost CAS) finishes through
// the serial retry path, exactly as a client Set would. Replica stores
// are maintenance: they keep the per-node copies, but do not count as
// logical Sets in any client's Stats. The plans come from each replica
// client's pool and go back once their stores finished.
func (m *MultiClient) updateReplicas(e *hotset.Entry, key, value []byte) error {
	plans, run := m.repSets[:0], m.fanout[:0]
	for _, id := range e.Replicas {
		c := m.clientFor(id)
		if c == nil {
			continue // node left the pool; the stale entry is demoted on next touch
		}
		pl := c.acquireSetPlan(key, value)
		plans = append(plans, pl)
		run = append(run, pl)
	}
	m.repSets, m.fanout = plans, run
	if len(run) == 0 {
		return nil
	}
	// A replica that fail-stops mid-fan-out is skipped: its copies died
	// with it, and a missing copy is always safe — a spread read that
	// probe-misses falls back to the primary. (A doorbell round has
	// partial semantics: live siblings' verbs applied, the dead
	// node's did not; the per-replica finish below drives each survivor
	// to completion from whatever outcome its plan reached.)
	_ = rdma.CatchUnreachable(func() { m.runner.RunPlans(maintenance, run) })
	// A store that exhausts its retry budget (ErrNoProgress: a
	// misconfigured table) is remembered but does not abandon the
	// remaining replicas mid-store; the caller demotes the entry, so no
	// partial copy set outlives the error.
	var firstErr error
	for i, pl := range plans {
		plans[i], run[i] = nil, nil
		if pl.c.cl.dead {
			continue
		}
		var err error
		if rdma.CatchUnreachable(func() { err = m.finishReplicaStore(key, value, pl) }) != nil {
			continue // this replica fail-stopped mid-store; skip it
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// finishReplicaStore drives one replica's store to completion from
// whatever outcome the fan-out attempt reached, mirroring Client.Set's
// retry loop (evict on full buckets, fresh snapshot on a lost CAS)
// without its stats accounting, and returns the plan to its client's
// pool. A store that exhausts its retry budget returns an
// ErrNoProgress-wrapped error (a misconfigured table) rather than
// completing partially.
func (m *MultiClient) finishReplicaStore(key, value []byte, pl *setPlan) error {
	c := pl.c
	for attempt := 0; ; attempt++ {
		switch pl.outcome {
		case setDone:
			c.releaseSetPlan(pl)
			return nil
		case setNoFree:
			if !c.bucketEvict(pl.scanned) {
				c.reclaimOldestHistory(pl.scanned)
			}
		case setCASLost:
			// Lost a race (concurrent writer or this fan-out's own
			// evictions): retry with a fresh snapshot.
		}
		c.releaseSetPlan(pl)
		if attempt > 4096 {
			return fmt.Errorf("%w: replica store stalled (table misconfigured?)", ErrNoProgress)
		}
		pl = c.acquireSetPlan(key, value)
		m.runner.Serial.Run(pl)
	}
}

// readQuiet reads key's value from one node with raw get plans — no
// stats, no frequency touch, no observer report — for maintenance reads
// (promotion's value snapshot) that must not perturb the hit accounting.
func (m *MultiClient) readQuiet(node int, key []byte) ([]byte, bool) {
	c := m.clientFor(node)
	if c == nil {
		return nil, false
	}
	var val []byte
	var hit bool
	if rdma.CatchUnreachable(func() {
		for attempt := 0; attempt < getRetries; attempt++ {
			pl := c.acquireGetPlan(key)
			m.runner.Serial.Run(pl)
			if pl.hit {
				val, hit = append([]byte(nil), pl.dec.value...), true
			}
			stale := pl.stale
			c.releaseGetPlan(pl)
			if hit || !stale {
				return
			}
		}
	}) != nil {
		// The node fail-stopped mid-read: its copy is gone. Callers treat
		// a maintenance-read miss as "key vanished" and demote — exactly
		// right for a crashed primary.
		return nil, false
	}
	return val, hit
}

// invalidateReplicas deletes every replica copy of e — a fan-out of
// delPlans (plan.go) run as doorbell rounds. delPlans have no fallback
// edges (a lost delete CAS means someone else already removed or
// replaced that copy), so one pass suffices. Replica nodes that left the
// pool are skipped: their copies left with them.
func (m *MultiClient) invalidateReplicas(e *hotset.Entry) {
	run := m.fanout[:0]
	for _, id := range e.Replicas {
		if c := m.clientFor(id); c != nil {
			run = append(run, c.acquireDelPlan(e.Key))
		}
	}
	m.fanout = run
	if len(run) == 0 {
		return
	}
	// A replica that fail-stops mid-invalidation needs none: its copies
	// died with it, which is exactly the post-state an invalidation
	// establishes. Live siblings' deletes still apply (partial doorbell
	// semantics), so the invariant — no spreadable copy holds a
	// superseded value — survives the crash.
	_ = rdma.CatchUnreachable(func() { m.runner.RunPlans(maintenance, run) })
	for i, pl := range run {
		dp := pl.(*delPlan)
		dp.c.releaseDelPlan(dp)
		run[i] = nil
	}
}

// demoteLocked removes a LOCKED entry from the replicated set:
// invalidate every replica copy, then drop the entry (which releases the
// lock and wakes waiters into the unreplicated path).
func (m *MultiClient) demoteLocked(e *hotset.Entry) {
	m.invalidateReplicas(e)
	m.mc.hot.Remove(e)
	m.mc.Demotions++
}

// resyncAfterWrite is the registered unreplicated write paths' post-CAS
// re-check (callers still hold their BeginWrite registration): if an
// entry exists for a key that was just written (or deleted) OUTSIDE the
// entry lock — a promotion raced the write — repair it before the write
// returns. The repair re-reads the primary under the lock and pushes
// its CURRENT value to every replica (so concurrent repairs converge on
// the newest unreplicated CAS, whichever order their locks are granted
// in), clearing the warming state when it is the last registered writer;
// a primary miss means the key was deleted, so the entry is demoted
// instead. Stale entries are demoted rather than repaired, matching
// every other touch of a stale entry. On the common no-entry case this
// is a single map lookup.
func (m *MultiClient) resyncAfterWrite(key []byte) error {
	e := m.mc.hot.Lock(m.p, key)
	if e == nil {
		return nil
	}
	if s := m.mc.snap(); e.Epoch != s.epoch || s.oldRing != nil || e.Evicted {
		m.demoteLocked(e)
		return nil
	}
	m.mc.hot.ChargeWriteThrough(e)
	val, ok := m.readQuiet(e.Primary, key)
	if !ok {
		m.demoteLocked(e)
		return nil
	}
	if err := m.updateReplicas(e, key, val); err != nil {
		m.demoteLocked(e)
		return err
	}
	if m.mc.hot.InflightWrites(e.KeyHash) == 1 {
		// This repair is the last registered writer standing: the value
		// just pushed is the primary's current one and no unreplicated
		// CAS can land after it (any new writer sees the entry), so the
		// entry is safe to spread from.
		e.Warming = false
	}
	m.mc.hot.Unlock(e)
	return nil
}

// demoteKey demotes key's entry if one exists, waiting out any
// maintainer currently holding it. It is the read paths' lazy cleanup of
// stale entries and the reshard sweep's workhorse; on the (common) miss
// it is one map lookup.
func (m *MultiClient) demoteKey(key []byte) {
	if e := m.mc.hot.Lock(m.p, key); e != nil {
		m.demoteLocked(e)
	}
}

// demoteAll demotes every entry in the directory — the resharder's
// window-opening sweep, run before any table scanning. Entries locked
// by concurrent maintainers (including an in-flight promotion, which
// self-demotes once it observes the epoch change) are waited for via
// Lock; entries that vanish meanwhile are skipped (Lock returns nil).
func (m *MultiClient) demoteAll() {
	for _, k := range m.mc.hot.Keys() {
		m.demoteKey(k)
	}
}

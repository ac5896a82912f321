// Package hotset is the client-shared directory of replicated hot keys —
// the bookkeeping half of Ditto's hot-key replication layer (the I/O half
// lives in internal/core, which materializes and maintains the actual
// copies with one-sided verbs).
//
// The consistent-hash ring maps every key to exactly one memory node, so
// on a skewed workload the node owning the hottest keys saturates while
// its peers idle. The replication layer promotes keys whose observed hit
// frequency crosses a threshold (the same client-side hotness signal the
// FC cache and the adaptive engine already maintain, §4.2.2/§4.3) into
// this directory: each Entry records the key's primary ring owner, the
// ring-successor nodes holding its data replicas, and a rotating read
// cursor that spreads subsequent reads across all copies.
//
// Concurrency discipline (all under the cooperative sim scheduler):
//
//   - READERS consult entries without locking: Lookup + Entry.ReadTarget
//     are yield-free, so a read path never blocks on replica maintenance.
//     A reader that picks a replica whose copy is missing (not yet
//     materialized, or evicted) simply falls back to the primary.
//   - WRITERS and maintainers (promotion, demotion, invalidation) hold
//     the per-entry lock (Lock/Unlock) across their verbs. This
//     serializes all mutations of one hot key's copy set, which is what
//     keeps every replica equal to the last completed write — the
//     invariant that makes a replica-served read indistinguishable from a
//     primary-served one.
//   - An entry is "born locked": Insert marks it busy, so the promoter
//     materializes copies before any writer can slip between directory
//     insertion and materialization.
//   - Replicated writes are invalidate-first (the core layer deletes
//     every replica copy under the lock BEFORE the primary's publishing
//     CAS, then re-materializes): a spreadable replica only ever holds
//     the primary's current value or nothing, so reads stay monotonic
//     with no reader-side locking — a probe miss just falls back to the
//     primary.
//   - The one divergence no lock covers — a promotion that materialized
//     its copies while an unreplicated write (which checked the
//     directory before the entry existed) was still in flight — is
//     handled by the WARMING state plus the write registry
//     (BeginWrite/EndWrite): such writers run unreplicated but
//     registered, the promoter publishes the entry as Warming when any
//     registration is live at publish time, readers refuse to spread
//     from warming entries, and the entry turns spreadable only when a
//     repair (the core layer's resyncAfterWrite) or a replicated write
//     completes its fan-out with no other registered writer in flight —
//     a moment at which every copy provably equals the primary.
//
// Entries also carry the load accounting (reads vs writes since
// promotion) that drives load-aware demotion: replication pays 1+R writes
// per Set, so a key whose write rate overtakes its read rate is demoted
// by the core layer using these counters.
//
// Admission: more keys can cross the promotion threshold than the
// directory holds, and a full directory that always made room — demote
// the least-recently-read entry, insert the newcomer — would thrash: the
// demoted key qualifies again on its next hit, and each swap costs a
// replica invalidation plus a materialization. So the directory keeps a
// TinyLFU frequency sketch (sketch.go), fed with every hit the pool's
// clients observe, and admits a candidate into a full directory only
// when its estimated recent frequency strictly exceeds the
// least-recently-read victim's (Admit). The sketch halves its counters
// every W = 16 × limit × threshold samples; W derives from the
// directory's two existing parameters, so admission adds no option.
package hotset

import (
	"bytes"
	"sort"
	"sync/atomic"

	"ditto/internal/sim"
)

// Entry is one replicated hot key. Primary/Replicas/Epoch are fixed at
// promotion (a ring change makes the entry stale rather than rewriting
// it); the counters and cursor mutate in place.
type Entry struct {
	// Key is the promoted key (the entry owns this copy).
	Key []byte
	// KeyHash is the key's table hash, set at promotion. Eviction only
	// ever learns a victim's hash (the slot stores no key bytes), so the
	// evicted-primary sweep matches on it.
	KeyHash uint64
	// Epoch is the routing epoch the replica set was computed under. An
	// entry whose Epoch no longer matches the cluster's is STALE: readers
	// must not spread from it and the next writer demotes it.
	Epoch uint64
	// Primary is the key's ring owner at promotion time.
	Primary int
	// Replicas are the ring-successor nodes holding data replicas, in
	// successor order (never including Primary).
	Replicas []int

	// Tenant is the owning tenant observed at promotion (a core.TenantID;
	// this package stays below core in the import order, so it is a raw
	// byte here). The replication layer refuses promotion to — and
	// demotes entries of — tenants over their byte quota, since every
	// replica copy multiplies the tenant's footprint.
	Tenant byte

	// Warming marks an entry whose copies may still diverge from an
	// unreplicated write: the promotion is still materializing, or a
	// write that predates the entry was in flight when it published
	// (see the package comment). Readers must not spread from it.
	// Cleared — under the entry lock — by the first fan-out that
	// completes with no registered writer in flight.
	Warming bool

	// Evicted marks an entry whose PRIMARY copy was evicted by the
	// cache's memory pressure (MarkPrimaryEvicted). The cache chose to
	// drop the key, so the replicas must not keep serving it: readers
	// refuse to spread from the entry and the next toucher demotes it,
	// dissolving the replica copies. Set without the entry lock (the
	// eviction path must not block or issue verbs); acted on under it.
	Evicted bool

	// Reads and Writes count operations routed through this entry since
	// promotion — the load signal for write-heavy demotion.
	Reads, Writes int64

	rr       uint64    // rotating cursor over [Primary]+Replicas
	seq      uint64    // insertion order, Victim's deterministic tie-break
	lastRead int64     // virtual time of the most recent read routed via this entry
	busy     bool      // held by one writer/maintainer; see package comment
	owner    *sim.Proc // the process holding the lock (crash-steal support)
}

// Owner returns the process currently holding the entry's lock, or nil.
func (e *Entry) Owner() *sim.Proc { return e.owner }

// NoteRead records one read routed through this entry without choosing
// a spread target — the fallback paths (busy or warming entry) use it so
// the demotion heuristics still see the key's read load.
func (e *Entry) NoteRead(now int64) {
	e.Reads++
	e.lastRead = now
}

// Touch stamps the entry's last-read time without counting a read.
// Promotion calls it before Insert so a freshly promoted entry is not
// Victim's strict minimum (lastRead zero) — otherwise, at capacity,
// each new promotion would evict the most recently promoted entry
// before it served a single spread read.
func (e *Entry) Touch(now int64) { e.lastRead = now }

// ReadTarget returns the node the next spread read should probe,
// rotating over the primary and every replica so each copy serves an
// equal share, and records the read (Reads, last-read time) for the
// demotion heuristics. now is the caller's virtual time.
func (e *Entry) ReadTarget(now int64) int {
	order := 1 + len(e.Replicas)
	i := int(e.rr % uint64(order))
	e.rr++
	e.NoteRead(now)
	if i == 0 {
		return e.Primary
	}
	return e.Replicas[i-1]
}

// Set is the directory of replicated hot keys, shared by every client of
// one MultiCluster. It is safe only under the cooperative sim scheduler
// (mutations between yields are atomic); cross-process exclusion for
// maintenance is provided by the per-entry Lock.
type Set struct {
	limit   int
	seq     uint64 // insertion counter; stamps Entry.seq
	entries map[string]*Entry
	freq    *sketch // recent hit frequency of every key the clients read (Record)
	// read is the COW (copy-on-write) snapshot of entries behind an
	// atomic pointer, RCU-style: Lookup — the per-read hot path — loads
	// it once and probes a map no writer will ever mutate, while Insert
	// and Remove (rare maintenance events, bounded by limit) republish a
	// fresh copy after mutating the master map. The snapshot covers
	// MEMBERSHIP only; the *Entry values are shared and their counters
	// mutate in place under the usual discipline (yield-free readers,
	// per-entry locks for maintainers).
	read     atomic.Pointer[map[string]*Entry]
	inflight map[uint64]int // unreplicated writes in flight, per key hash (BeginWrite)
	unlocked *sim.Cond      // broadcast whenever any entry lock is released

	// victim caches Victim's result while victimOK; victimLast is the
	// victim's lastRead when it was cached. See Victim.
	victim     *Entry
	victimLast int64
	victimOK   bool
}

// New creates an empty directory holding at most limit entries, whose
// keys become promotion candidates after threshold hits. Beyond limit
// the promotion path must win admission against the least-recently-read
// entry (Admit); the admission sketch halves every 16 × limit ×
// threshold recorded hits.
func New(env *sim.Env, limit int, threshold uint64) *Set {
	if limit < 1 {
		limit = 1
	}
	if threshold < 1 {
		threshold = 1
	}
	s := &Set{
		limit:    limit,
		entries:  make(map[string]*Entry),
		freq:     newSketch(limit, 16*uint64(limit)*threshold),
		inflight: make(map[uint64]int),
		unlocked: sim.NewCond(env),
	}
	s.publishRead()
	return s
}

// publishRead republishes the read-side COW snapshot after a membership
// mutation. O(Len) per call, bounded by limit — promotion and demotion
// are maintenance events, so the copy is off every per-operation path.
func (s *Set) publishRead() {
	m := make(map[string]*Entry, len(s.entries))
	//dittolint:allow simdet (map-to-map copy: the resulting snapshot is iteration-order independent)
	for k, e := range s.entries {
		m[k] = e
	}
	s.read.Store(&m)
}

// Len returns the number of entries.
func (s *Set) Len() int { return len(s.entries) }

// Limit returns the entry capacity.
func (s *Set) Limit() int { return s.limit }

// Lookup returns the entry for key, or nil. It never blocks and probes
// the immutable read snapshot (one atomic load — writers republish on
// Insert/Remove, never mutate it), so the read hot path cannot observe
// a map mid-mutation and allocates nothing. The result may be busy
// (under maintenance), which only matters to writers — they must use
// Lock instead.
func (s *Set) Lookup(key []byte) *Entry { return (*s.read.Load())[string(key)] }

// Lock acquires the maintenance lock on key's entry, waiting (yielding p)
// while another process holds it. It returns nil — without ever having
// held the lock — when the key has no entry, including when the entry is
// removed while waiting; callers must handle nil by falling back to the
// unreplicated path. On success the caller MUST release with Unlock or
// Remove.
//
// Crash stealing: a lock whose holder was Killed mid-maintenance would
// otherwise wedge every future writer of the key. Lock detects a dead
// holder and STEALS the lock, first marking the entry Warming — the dead
// holder may have left the copy set half-mutated, and invalidate-first
// ordering guarantees half-mutated means "some replicas deleted", never
// "some replicas stale" — so readers fall back to the primary until the
// stealer's own fan-out (or a demotion) repairs the entry. Waiters parked
// before the kill are woken by Set.CrashWake, which the killer's OnCrash
// hooks invoke.
func (s *Set) Lock(p *sim.Proc, key []byte) *Entry {
	for {
		e := s.entries[string(key)]
		if e == nil {
			return nil
		}
		if !e.busy {
			e.busy = true
			e.owner = p
			return e
		}
		if e.owner != nil && e.owner.Killed() {
			e.owner = p
			e.Warming = true
			return e
		}
		s.unlocked.Wait(p)
	}
}

// CrashWake wakes every process waiting for an entry lock so it can
// re-check for a dead holder and steal. Call it after killing a process
// that may have held entry locks (OnCrash hooks do).
func (s *Set) CrashWake() { s.unlocked.Broadcast() }

// Unlock releases a lock taken by Lock (or implicitly by Insert) and
// wakes every waiter.
func (s *Set) Unlock(e *Entry) {
	e.busy = false
	e.owner = nil
	// The unlocked entry rejoins Victim's candidates: it becomes the
	// victim if it is older than the cached one (whose stamp every other
	// candidate's lastRead was at least when it was cached, and lastRead
	// only grows).
	if s.victimOK && (s.victim == nil || olderThan(e, s.victimLast, s.victim.seq)) {
		s.victim, s.victimLast = e, e.lastRead
	}
	s.unlocked.Broadcast()
}

// Insert adds e to the directory with its lock HELD by p ("born locked"),
// so copies can be materialized before any writer observes the entry
// unlocked. It returns false (and inserts nothing) when the key already
// has an entry. Capacity is the caller's concern: check Len against Limit
// and demote a Victim first.
func (s *Set) Insert(p *sim.Proc, e *Entry) bool {
	k := string(e.Key)
	if _, ok := s.entries[k]; ok {
		return false
	}
	e.busy = true
	e.owner = p
	s.seq++
	e.seq = s.seq
	s.entries[k] = e
	s.publishRead()
	return true
}

// Remove deletes a LOCKED entry from the directory and wakes every
// waiter (whose Lock retry then observes the key gone and returns nil).
// The caller must hold e's lock and must not touch e afterwards.
func (s *Set) Remove(e *Entry) {
	delete(s.entries, string(e.Key))
	s.publishRead()
	if s.victim == e {
		s.victimOK = false
	}
	e.busy = false
	e.owner = nil
	s.unlocked.Broadcast()
}

// Victim returns the unlocked entry with the oldest last-read time — the
// candidate to demote when the directory is full — or nil when every
// entry is under maintenance. Last-read ties are broken by insertion
// order (oldest entry wins), so the scan computes a strict minimum
// under a total order: the result is independent of map iteration
// order, which keeps demotion choices reproducible under CHAOS_SEED.
//
// The result is cached, because admission consults it on every hit of
// a candidate key. The cache stays exact without a hook on the read
// path: virtual time is monotonic, so a read only ever raises an
// entry's lastRead and can displace only the victim itself, which
// Victim detects by its changed stamp (or its lock); an entry leaving
// maintenance is compared on Unlock, and removing the victim drops the
// cache. Anything else costs one O(limit) rescan.
func (s *Set) Victim() *Entry {
	if v := s.victim; s.victimOK && (v == nil || !v.busy && v.lastRead == s.victimLast) {
		return v
	}
	var v *Entry
	//dittolint:allow simdet (strict minimum under a total order: lastRead ties broken by unique insertion seq, so the result is iteration-order independent)
	for _, e := range s.entries {
		if !e.busy && (v == nil || olderThan(e, v.lastRead, v.seq)) {
			v = e
		}
	}
	s.victim, s.victimOK = v, true
	if v != nil {
		s.victimLast = v.lastRead
	}
	return v
}

// olderThan orders entries for Victim: e precedes an entry last read at
// lastRead and inserted as seq.
func olderThan(e *Entry, lastRead int64, seq uint64) bool {
	return e.lastRead < lastRead || e.lastRead == lastRead && e.seq < seq
}

// Record feeds one hit of the key with hash kh to the admission sketch.
// The core layer calls it for every hit its clients observe — primary
// and replica-spread reads alike — so the estimates rank every key,
// promoted or not, by recent read frequency.
func (s *Set) Record(kh uint64) { s.freq.record(kh) }

// Admit applies TinyLFU's admission rule to a promotion candidate with
// key hash kh. While the directory has room it admits with no victim.
// When it is full, victim is the entry a promotion would demote (see
// Victim), and admit is true only if the candidate's estimated recent
// frequency strictly exceeds the victim's: a tie keeps the incumbent,
// since swapping equals costs a demotion and a materialization for
// nothing. admit is false with a nil victim when every entry is under
// maintenance. Admit issues no verbs and allocates nothing.
func (s *Set) Admit(kh uint64) (victim *Entry, admit bool) {
	if len(s.entries) < s.limit {
		return nil, true
	}
	if victim = s.Victim(); victim == nil {
		return nil, false
	}
	return victim, s.freq.estimate(kh) > s.freq.estimate(victim.KeyHash)
}

// MarkPrimaryEvicted flags the entry (if any) whose key hash matches an
// eviction victim on node — but only when that node is the entry's
// PRIMARY: a replica copy evicted under its own node's pressure is just
// a silent probe miss, while a primary copy evicted means the cache
// dropped the key and the replicas would resurrect it. Pure bookkeeping
// (no verbs, no locks — callable from the eviction completion path);
// the demotion itself happens lazily at the next directory touch. The
// directory is small (Limit entries), so the scan is bounded. Every
// matching entry is flagged — two distinct hot keys can collide in
// (KeyHash, Primary), and stopping at the first hit would make the
// flagged set depend on map iteration order; over-flagging only costs a
// spurious demote-and-repromote.
func (s *Set) MarkPrimaryEvicted(node int, keyHash uint64) {
	//dittolint:allow simdet (flags every match, no early exit: the resulting state is iteration-order independent)
	for _, e := range s.entries {
		if e.KeyHash == keyHash && e.Primary == node {
			e.Evicted = true
		}
	}
}

// BeginWrite registers an unreplicated write in flight on the key with
// table hash kh (hashtable.KeyHash, the hash Entry.KeyHash records).
// Write paths that did NOT find an entry under Lock bracket their whole
// span (verbs + post-CAS repair) with BeginWrite/EndWrite; the registry
// never blocks anyone — it only tells promotion to publish Warming and
// tells fan-outs when the key is write-quiescent (InflightWrites). The
// registration must happen in the same scheduling slice as the nil Lock
// result (no verb in between): an entry inserted later then provably
// either sees the registration or was seen by the writer.
//
// The registry is keyed by hash rather than key bytes so registering
// allocates nothing. Two keys whose hashes collide share one count,
// which can only over-count a key's writes in flight: its entry stays
// Warming — readers use the primary — a little longer than needed, the
// safe direction. The count never reads low, so a collision can never
// let a reader spread from a copy an unreplicated write may have
// superseded.
func (s *Set) BeginWrite(kh uint64) { s.inflight[kh]++ }

// EndWrite unregisters a write registered by BeginWrite. Call it only
// after the write's repair re-check (resyncAfterWrite) has completed,
// so a clearing fan-out that still sees this registration knows the
// repair is yet to run.
func (s *Set) EndWrite(kh uint64) {
	if s.inflight[kh]--; s.inflight[kh] <= 0 {
		delete(s.inflight, kh)
	}
}

// InflightWrites returns the number of registered unreplicated writes
// in flight on the key with hash kh, counting any key whose hash
// collides with it.
func (s *Set) InflightWrites(kh uint64) int { return s.inflight[kh] }

// Keys returns a snapshot of every entry's key (locked or not), sorted
// bytewise, for maintenance sweeps that demote entries one by one via
// Lock (which tolerates entries vanishing between the snapshot and the
// lock). The sort keeps sweep order — and therefore the verb schedule
// of a demotion sweep — independent of map iteration order.
func (s *Set) Keys() [][]byte {
	out := make([][]byte, 0, len(s.entries))
	//dittolint:allow simdet (collects into a slice that is sorted below; iteration order cannot escape)
	for _, e := range s.entries {
		out = append(out, e.Key)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

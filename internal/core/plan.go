package core

// The verb plans: each cache operation's one-sided verb sequence (§4.1),
// written ONCE as an exec.Plan and executed under either strategy.
//
//	Get:     bucket READ(s) → object READ(s)                → hit/miss/stale
//	SpecGet: ONE hinted object READ, validated in place     → hit/fall back
//	Set:     bucket READ(s) → object READ(s) → classify →
//	         object WRITE → publish CAS                     → done/noFree/casLost
//	Migrate: Set in insert-if-absent mode (absence verified
//	         in BOTH buckets, metadata carried over, post-
//	         publish duplicate sweep) → source delete CAS    → moved/skipped/retry
//	Delete:  bucket READs → object READs → delete CASes     → deleted?
//
// Serial traversal (exec.Serial) is lazy and reproduces the hand-written
// per-key paths verb for verb: a Get that hits in the main bucket never
// reads the backup bucket, an insert stops at the first bucket with a
// reclaimable slot. Doorbell traversal (exec.Doorbell) is eager — both
// buckets, then every candidate object, as one stage each — so N plans
// advance as shared doorbell batches. Complications (stale snapshot,
// lost CAS, full bucket) finish the plan with that outcome and the
// driver demotes the key to the serial retry loop.
//
// Metadata maintenance stays off the critical path exactly as before:
// plans issue only the synchronous critical-path verbs; frequency FAAs
// (via the FC cache), last_ts and insert-metadata WRITEs ride
// asynchronously from the completion hooks.

import (
	"bytes"

	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/history"
	"ditto/internal/loccache"
	"ditto/internal/memnode"
	"ditto/internal/rdma"
)

// bucketVerb is the bucket READ of a plan stage, delivered into the
// plan-owned buffer at *buf (sized here, allocated at most once per
// pooled plan). A nil *buf pointer keeps the allocate-per-READ shape.
func (c *Client) bucketVerb(b int, buf *[]byte) exec.Verb {
	op := c.cl.Layout.BucketReadOp(b)
	if buf != nil {
		*buf = grow(*buf, op.Len)
		op.Buf = *buf
	}
	return exec.Verb{EP: c.ep, Op: op}
}

// objectVerb is the object READ behind a slot, delivered into the
// plan-owned buffer at *buf (see bucketVerb).
func (c *Client) objectVerb(s hashtable.Slot, buf *[]byte) exec.Verb {
	op := rdma.BatchOp{
		Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: s.Atomic.SizeBytes(),
	}
	if buf != nil {
		*buf = grow(*buf, op.Len)
		op.Buf = *buf
	}
	return exec.Verb{EP: c.ep, Op: op}
}

// casVerb is a slot-atomic CAS.
func casVerb(c *Client, slotAddr uint64, expect, swap hashtable.AtomicField) exec.Verb {
	return exec.Verb{EP: c.ep, Op: rdma.BatchOp{
		Kind: rdma.BatchCAS, Addr: hashtable.AtomicAddr(slotAddr),
		Expect: uint64(expect), Swap: uint64(swap),
	}}
}

// ---------------------------------------------------- single verbs ----
//
// Not every remote access is a multi-verb sequence: metadata
// maintenance, ablation probes, and migration re-reads are lone verbs.
// They still belong to this file — the declare-once invariant (PR 3)
// says every verb the client issues is visible here, so changing a wire
// interaction never means hunting call sites. dittolint's verbplan
// analyzer enforces exactly that: a raw endpoint verb outside plan.go,
// internal/exec, internal/baselines, or the handle layer fails CI.

// readObject synchronously fetches the object behind a live slot.
func (c *Client) readObject(s hashtable.Slot) []byte {
	return c.ep.Read(s.Atomic.Pointer(), s.Atomic.SizeBytes())
}

// issueRead synchronously issues one declared READ op (the op itself is
// built by an addressing owner such as extReadOp).
func (c *Client) issueRead(op rdma.BatchOp) []byte {
	return c.ep.Read(op.Addr, op.Len)
}

// metaWriteAsync rides metadata maintenance off the critical path with
// one asynchronous WRITE (completion ignored; §4.1 "stateless fields").
func (c *Client) metaWriteAsync(addr uint64, data []byte) {
	c.ep.WriteAsync(addr, data)
}

// freeStampAsync clears a published block's tenant+incarnation bytes
// with one asynchronous 8-byte WRITE before the block is freed, so a
// lingering image in freed-but-not-yet-reused memory can never validate
// a speculative read (object.go: ver 0 never validates). That closes the
// resurrection window for deleted/evicted keys and the stale-read window
// for superseded updates; block REUSE needs no stamp at all, since the
// next image's unique ver already mismatches every outstanding hint.
//
// MUST be called BEFORE alloc.Free of the same block — after the free,
// another client may already have reallocated and republished the
// address, and the stamp would corrupt a live object. Gated on specMode:
// with the location cache off nothing ever reads the stamp, and skipping
// the WRITE keeps the seed's verb shapes byte-for-byte.
func (c *Client) freeStampAsync(addr uint64) {
	if !c.cl.specMode() {
		return
	}
	c.ep.WriteAsync(addr+objTenantOff, c.stamp8[:])
}

// probeConventionalIndex models the conventional design's per-miss probe
// of a separate remote index over the history (DisableLWH ablation): one
// extra 8-byte READ against the history counter.
func (c *Client) probeConventionalIndex() {
	c.ep.Read(memnode.HistCounterAddr, 8)
}

// readObjects fetches the objects behind the given slots with one
// doorbell batch of READs (used by the resharder's scan pipeline).
func (c *Client) readObjects(slots []hashtable.Slot) [][]byte {
	if len(slots) == 0 {
		return nil
	}
	ops := make([]rdma.BatchOp, len(slots))
	for i, s := range slots {
		ops[i] = rdma.BatchOp{Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: s.Atomic.SizeBytes()}
	}
	res := c.ep.PostBatch(ops)
	out := make([][]byte, len(slots))
	for i := range res {
		out[i] = res[i].Data
	}
	return out
}

// keyBuckets returns a key's main and backup bucket, in scan order.
func (c *Client) keyBuckets(kh uint64) [2]int {
	return [2]int{c.cl.Layout.MainBucket(kh), c.cl.Layout.BackupBucket(kh)}
}

// stageEnd returns the exclusive end of one stage's next verb group:
// the single next item under lazy traversal, every remaining item under
// eager — the shared emission rule of all plan stages. next is the
// stage's progress cursor (advanced by Absorb), total its item count.
// Each Step emits the group [next, stageEnd) into the plan's own verbs
// scratch; the closure-per-stage emission helper this replaces was one
// of the hot path's top allocation sites.
func stageEnd(eager bool, next, total int) int {
	if eager {
		return total
	}
	return next + 1
}

// ------------------------------------------------------------------- Get ----

// getPlan states.
const (
	gBuckets = iota
	gObjects
	gDone
)

// getPlan is one Get attempt: stage bucket READs, stage candidate object
// READs, with the stale-snapshot fallback edge surfaced as the `stale`
// outcome (the driver re-runs a fresh attempt, bounded by getRetries).
type getPlan struct {
	c       *Client
	key     []byte
	kh      uint64
	fp      byte
	buckets [2]int

	st    int
	bi    int              // next bucket to absorb
	cands []hashtable.Slot // fingerprint-matching live slots, scan order
	ci    int              // next candidate to absorb

	histMatches []hashtable.Slot
	stale       bool

	// rnow is the attempt's reference time for lease-expiry checks,
	// captured at reset so a doorbell batch judges every key against one
	// clock reading.
	rnow int64

	hit  bool
	slot hashtable.Slot
	dec  decodedObject

	// Pooled scratch, kept across reset: verb-group emission, READ
	// delivery buffers (one per verb index), and bucket decoding.
	verbs    []exec.Verb
	bktBuf   [][]byte
	objBufs  [][]byte
	decSlots []hashtable.Slot
}

// reset re-aims the plan at key, keeping its scratch buffers.
func (pl *getPlan) reset(c *Client, key []byte) {
	kh := hashtable.KeyHash(key)
	pl.c, pl.key, pl.kh = c, key, kh
	pl.fp = hashtable.Fingerprint(kh)
	pl.buckets = c.keyBuckets(kh)
	pl.st, pl.bi, pl.ci = gBuckets, 0, 0
	pl.cands = pl.cands[:0]
	pl.histMatches = pl.histMatches[:0]
	pl.stale, pl.hit = false, false
	pl.rnow = c.p.Now()
	pl.slot, pl.dec = hashtable.Slot{}, decodedObject{}
}

func (pl *getPlan) Step(eager bool) []exec.Verb {
	for {
		switch pl.st {
		case gBuckets:
			if pl.bi >= len(pl.buckets) {
				pl.st = gDone
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.bi; i < stageEnd(eager, pl.bi, len(pl.buckets)); i++ {
				pl.verbs = append(pl.verbs, pl.c.bucketVerb(pl.buckets[i], bufAt(&pl.bktBuf, i)))
			}
			return pl.verbs
		case gObjects:
			if pl.ci >= len(pl.cands) {
				pl.st = gBuckets
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.ci; i < stageEnd(eager, pl.ci, len(pl.cands)); i++ {
				pl.verbs = append(pl.verbs, pl.c.objectVerb(pl.cands[i], bufAt(&pl.objBufs, i)))
			}
			return pl.verbs
		default:
			return nil
		}
	}
}

func (pl *getPlan) Absorb(res []exec.Result) {
	switch pl.st {
	case gBuckets:
		for _, r := range res {
			b := pl.buckets[pl.bi]
			pl.bi++
			pl.decSlots = pl.c.cl.Layout.AppendBucket(pl.decSlots[:0], b, r.Data)
			for _, s := range pl.decSlots {
				switch {
				case s.Atomic.IsEmpty():
				case s.Atomic.IsHistory():
					if s.Hash == pl.kh {
						pl.histMatches = append(pl.histMatches, s)
					}
				case s.Atomic.FP() == pl.fp:
					pl.cands = append(pl.cands, s)
				}
			}
		}
		if pl.ci < len(pl.cands) {
			pl.st = gObjects
		}
	case gObjects:
		for _, r := range res {
			s := pl.cands[pl.ci]
			pl.ci++
			dec := decodeObject(r.Data)
			if !dec.ok {
				pl.stale = true // reused memory behind a stale slot snapshot
				continue
			}
			if !bytes.Equal(dec.key, pl.key) {
				continue // fingerprint collision
			}
			if pl.c.cl.tenantMode && dec.expired(pl.rnow) {
				// A lapsed lease reads as a miss immediately; reclaiming the
				// block is the eviction sampler's job (never a reader's —
				// the read path stays write-free).
				continue
			}
			pl.hit, pl.slot, pl.dec = true, s, dec
			pl.st = gDone
			return // first match wins; later candidates are stale copies
		}
	}
}

// --------------------------------------------------- Speculative Get ----

// specGetPlan states.
const (
	spRead = iota
	spDone
)

// specGetPlan is the one-RTT speculative Get behind a location-cache
// hint: ONE READ of the hinted block at its remembered size class, then
// in-place validation of the returned image against the hint — the
// 24-byte header must decode, the incarnation stamp must equal the
// hint's exactly (object.go explains why that is sufficient), the inline
// key must match, the tenant must match, and under tenantMode the lease
// must be live. Any failure leaves ok=false and the driver falls back to
// the ordinary two-RTT getPlan; a speculative plan NEVER retries or
// issues further verbs, so the hint-hit path is exactly one verb (pinned
// by TestSpecGetVerbBudget).
//
// Under Doorbell the plan is single-stage: its READ joins the batch's
// first doorbell alongside unhinted keys' bucket READs, and Step returns
// nil from round two on — no executor changes needed.
type specGetPlan struct {
	c    *Client
	key  []byte
	hint loccache.Hint

	// rnow is the attempt's reference time for the lease-expiry check,
	// captured at reset (same convention as getPlan).
	rnow int64

	st  int
	ok  bool
	dec decodedObject

	// Pooled scratch, kept across reset: verb-group emission and the READ
	// delivery buffer.
	verbs []exec.Verb
	buf   []byte
}

// reset re-aims the plan at key/hint, keeping its scratch buffers.
func (pl *specGetPlan) reset(c *Client, key []byte, h loccache.Hint) {
	pl.c, pl.key, pl.hint = c, key, h
	pl.rnow = c.p.Now()
	pl.st = spRead
	pl.ok = false
	pl.dec = decodedObject{}
}

func (c *Client) newSpecGetPlan(key []byte, h loccache.Hint) *specGetPlan {
	pl := &specGetPlan{}
	pl.reset(c, key, h)
	return pl
}

func (pl *specGetPlan) Step(eager bool) []exec.Verb {
	if pl.st != spRead {
		return nil
	}
	pl.buf = grow(pl.buf, pl.hint.Len)
	pl.verbs = append(pl.verbs[:0], exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
		Kind: rdma.BatchRead, Addr: pl.hint.Addr, Len: pl.hint.Len, Buf: pl.buf,
	}})
	return pl.verbs
}

func (pl *specGetPlan) Absorb(res []exec.Result) {
	pl.st = spDone
	dec := decodeObject(res[0].Data)
	h := &pl.hint
	if !dec.ok || dec.ver == 0 || dec.ver != h.Ver ||
		!bytes.Equal(dec.key, pl.key) || dec.tenant != TenantID(h.Tenant) {
		return // block freed, reused, or never what we thought: fall back
	}
	if pl.c.cl.tenantMode && dec.expired(pl.rnow) {
		// Lapsed lease: fall back so the full plan applies the exact
		// lease-as-miss semantics (and its counting conventions).
		return
	}
	pl.ok, pl.dec = true, dec
}

// ------------------------------------------------------------------- Set ----

// setPlan states.
const (
	sBuckets = iota
	sObjects
	sWrite
	sCAS
	sSweepBuckets // migrate mode: post-publish duplicate sweep
	sSweepObjects
	sDone
)

// setPlan outcomes.
const (
	setPending = iota
	setDone    // published; migrate mode: insert survived the sweep
	setNoFree  // both buckets full of live objects and valid history
	setCASLost // publish CAS lost a race; staged object freed
	setPresent // migrate mode: key already present, or our copy yielded
)

// publish modes.
const (
	pUpdate = iota
	pInsert
)

// setCand is one fingerprint-matching slot, tagged with which of the
// key's buckets (0 = main, 1 = backup) held it.
type setCand struct {
	bkt  int
	slot hashtable.Slot
	dec  decodedObject
	got  bool
}

// setPlan is one Set attempt (§4.1 UPDATE/INSERT): stage bucket READs,
// stage candidate object READs, classify update-in-place vs insert with
// the same per-bucket precedence as the hand-written path (a bucket's
// key match beats its reclaimable slot beats the next bucket), then
// stage the object WRITE and the publishing CAS.
//
// In migrate mode the plan is the resharder's insert-if-absent: the
// absence check covers BOTH buckets before committing (a newer
// client-written copy in the backup bucket must win), the carried
// metadata is written instead of fresh metadata, and a post-publish
// duplicate sweep re-reads the buckets — a racing Set that read them
// before our CAS landed can have published the same key into a different
// slot; that copy is newer by construction, so ours yields.
type setPlan struct {
	c          *Client
	key, value []byte
	kh         uint64
	fp         byte
	size       int
	buckets    [2]int

	migrate            bool
	mExt               []byte
	mInsertTs, mLastTs int64
	mFreq              uint64

	// Tenancy: the header stamp of the staged object image (the client's
	// bound tenant and pending lease — or, in migrate mode, the moved
	// copy's carried values), the attempt's reference time for expiry
	// checks, and expUpd marking an update whose matched copy had an
	// EXPIRED lease — staged and finished with fresh metadata, as an
	// insert would be (a dead object is not "accessed" by replacing it).
	tenant TenantID
	expiry int64
	rnow   int64
	expUpd bool

	st          int
	lastEager   bool // traversal mode of the in-flight group
	bi          int
	doneBkt     int              // first bucket whose post-candidate logic hasn't run
	scanned     []hashtable.Slot // every slot seen (bucketEvict fallback)
	bucketSlots [2][]hashtable.Slot
	cands       []setCand
	ci          int

	mode    int
	updSlot hashtable.Slot
	updDec  decodedObject
	insSlot hashtable.Slot
	haveIns bool

	now  int64
	addr uint64
	ver  uint64 // incarnation stamp of the staged image (nextVer at stage)
	data []byte
	want hashtable.AtomicField

	outcome  int
	slotAddr uint64 // published slot (migrate: undo handle with `want`)

	swBi    int
	swCands []hashtable.Slot
	swi     int

	// Pooled scratch, kept across reset: verb-group emission, READ
	// delivery buffers, bucket decoding, and the extension/object-image
	// build buffers (extBuf backs the ext passed to stage; data backs
	// the staged WRITE and is retained until the publishing CAS).
	verbs    []exec.Verb
	bktBuf   [][]byte
	objBufs  [][]byte
	decSlots []hashtable.Slot
	extBuf   []byte
}

// reset re-aims the plan at key/value in normal (non-migrate) mode,
// keeping its scratch buffers.
func (pl *setPlan) reset(c *Client, key, value []byte) {
	kh := hashtable.KeyHash(key)
	pl.c, pl.key, pl.value, pl.kh = c, key, value, kh
	pl.fp = hashtable.Fingerprint(kh)
	pl.size = objBytes(len(key), len(value), c.cl.totalExt)
	pl.buckets = c.keyBuckets(kh)
	pl.migrate, pl.mExt = false, nil
	pl.mInsertTs, pl.mLastTs, pl.mFreq = 0, 0, 0
	pl.tenant, pl.expiry = c.tenant, c.nextExpiry
	pl.rnow = c.p.Now()
	pl.expUpd = false
	pl.st, pl.lastEager = sBuckets, false
	pl.bi, pl.doneBkt, pl.ci = 0, 0, 0
	pl.scanned = pl.scanned[:0]
	pl.bucketSlots[0] = pl.bucketSlots[0][:0]
	pl.bucketSlots[1] = pl.bucketSlots[1][:0]
	pl.cands = pl.cands[:0]
	pl.mode = pUpdate
	pl.updSlot, pl.insSlot = hashtable.Slot{}, hashtable.Slot{}
	pl.updDec = decodedObject{}
	pl.haveIns = false
	pl.now, pl.addr, pl.ver = 0, 0, 0
	pl.data = pl.data[:0]
	pl.want = 0
	pl.outcome = setPending
	pl.slotAddr = 0
	pl.swBi, pl.swi = 0, 0
	pl.swCands = pl.swCands[:0]
}

func (c *Client) newSetPlan(key, value []byte) *setPlan {
	pl := &setPlan{}
	pl.reset(c, key, value)
	return pl
}

// newMigrateSetPlan builds the insert-if-absent flavour carrying the
// access metadata — and the tenant/lease header stamp — the key had on
// its old memory node.
func (c *Client) newMigrateSetPlan(key, value, ext []byte, insertTs, lastTs int64,
	freq uint64, tenant TenantID, expiry int64) *setPlan {
	pl := c.newSetPlan(key, value)
	pl.migrate = true
	pl.mExt, pl.mInsertTs, pl.mLastTs, pl.mFreq = ext, insertTs, lastTs, freq
	pl.tenant, pl.expiry = tenant, expiry
	return pl
}

func (pl *setPlan) Step(eager bool) []exec.Verb {
	pl.lastEager = eager
	for {
		switch pl.st {
		case sBuckets:
			if pl.bi >= len(pl.buckets) {
				pl.finishScan()
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.bi; i < stageEnd(eager, pl.bi, len(pl.buckets)); i++ {
				pl.verbs = append(pl.verbs, pl.c.bucketVerb(pl.buckets[i], bufAt(&pl.bktBuf, i)))
			}
			return pl.verbs
		case sObjects:
			if pl.ci >= len(pl.cands) {
				pl.st = sBuckets
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.ci; i < stageEnd(eager, pl.ci, len(pl.cands)); i++ {
				pl.verbs = append(pl.verbs, pl.c.objectVerb(pl.cands[i].slot, bufAt(&pl.objBufs, i)))
			}
			return pl.verbs
		case sWrite:
			pl.verbs = append(pl.verbs[:0], exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
				Kind: rdma.BatchWrite, Addr: pl.addr, Data: pl.data,
			}})
			return pl.verbs
		case sCAS:
			target := pl.insSlot
			if pl.mode == pUpdate {
				target = pl.updSlot
			}
			pl.verbs = append(pl.verbs[:0], casVerb(pl.c, target.Addr, target.Atomic, pl.want))
			return pl.verbs
		case sSweepBuckets:
			if pl.swBi >= len(pl.buckets) {
				pl.outcome = setDone // no duplicate: the insert stands
				pl.st = sDone
				continue
			}
			// Migrate-mode only (cold): no plan-owned delivery buffer.
			pl.verbs = pl.verbs[:0]
			for i := pl.swBi; i < stageEnd(eager, pl.swBi, len(pl.buckets)); i++ {
				pl.verbs = append(pl.verbs, pl.c.bucketVerb(pl.buckets[i], nil))
			}
			return pl.verbs
		case sSweepObjects:
			if pl.swi >= len(pl.swCands) {
				pl.st = sSweepBuckets
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.swi; i < stageEnd(eager, pl.swi, len(pl.swCands)); i++ {
				pl.verbs = append(pl.verbs, pl.c.objectVerb(pl.swCands[i], nil))
			}
			return pl.verbs
		default:
			return nil
		}
	}
}

func (pl *setPlan) Absorb(res []exec.Result) {
	switch pl.st {
	case sBuckets:
		for _, r := range res {
			b := pl.buckets[pl.bi]
			slots := pl.c.cl.Layout.AppendBucket(pl.bucketSlots[pl.bi][:0], b, r.Data)
			pl.bucketSlots[pl.bi] = slots
			pl.scanned = append(pl.scanned, slots...)
			for i := range slots {
				s := slots[i]
				if s.Atomic.IsEmpty() || s.Atomic.IsHistory() || s.Atomic.FP() != pl.fp {
					continue
				}
				pl.cands = append(pl.cands, setCand{bkt: pl.bi, slot: s})
			}
			pl.bi++
		}
		if pl.ci < len(pl.cands) {
			pl.st = sObjects
			return
		}
		pl.classifyThrough(pl.bi)
	case sObjects:
		for _, r := range res {
			cand := &pl.cands[pl.ci]
			pl.ci++
			cand.dec = decodeObject(r.Data)
			cand.got = true
			// Lazy traversal commits at the FIRST key match, before later
			// candidates (or the next bucket) are even read — exactly the
			// hand-written scan. Eager traversal decodes everything first
			// and lets classifyThrough apply the per-bucket precedence.
			if !pl.lastEager && cand.dec.ok && bytes.Equal(cand.dec.key, pl.key) {
				if pl.migrate {
					pl.outcome = setPresent // newer copy already here; it wins
					pl.st = sDone
				} else {
					if pl.c.cl.tenantMode && cand.dec.expired(pl.rnow) {
						pl.expUpd = true
					}
					pl.startUpdate(*cand)
				}
				return
			}
		}
		if pl.ci < len(pl.cands) {
			return // lazy traversal: more candidates to read
		}
		pl.classifyThrough(pl.bi)
	case sWrite:
		pl.st = sCAS
	case sCAS:
		target := pl.insSlot
		if pl.mode == pUpdate {
			target = pl.updSlot
		}
		if !res[0].Swapped {
			pl.c.alloc.Free(pl.addr, pl.size)
			pl.outcome = setCASLost
			pl.st = sDone
			return
		}
		pl.slotAddr = target.Addr
		// Block ownership transferred: charge the new image to the
		// stamped tenant, credit a superseded block back to ITS tenant
		// (cross-tenant updates move the bytes between them).
		pl.c.accountTenant(pl.tenant, int64(pl.want.SizeBytes()))
		if pl.mode == pUpdate {
			pl.c.accountTenant(pl.updDec.tenant, -int64(pl.updSlot.Atomic.SizeBytes()))
			if pl.expUpd {
				// The superseded copy's lease had lapsed: finish as an
				// insert (free the dead block, drop its stale FC delta,
				// fresh slot metadata) — replacing a dead object is not an
				// access to it.
				pl.c.freeStampAsync(pl.updSlot.Atomic.Pointer())
				pl.c.alloc.Free(pl.updSlot.Atomic.Pointer(), pl.updSlot.Atomic.SizeBytes())
				pl.c.finishInsert(target.Addr, pl.kh, pl.now)
			} else {
				pl.c.finishUpdate(pl.updSlot, len(pl.key), pl.now)
			}
			pl.outcome = setDone
			pl.st = sDone
			return
		}
		if !pl.migrate {
			pl.c.finishInsert(target.Addr, pl.kh, pl.now)
			pl.outcome = setDone
			pl.st = sDone
			return
		}
		pl.c.fc.Forget(target.Addr)
		pl.c.ht.WriteMetaOnInsert(target.Addr, pl.kh, pl.mInsertTs, pl.mLastTs, pl.mFreq)
		pl.st = sSweepBuckets
	case sSweepBuckets:
		for _, r := range res {
			b := pl.buckets[pl.swBi]
			pl.swBi++
			pl.decSlots = pl.c.cl.Layout.AppendBucket(pl.decSlots[:0], b, r.Data)
			for _, s := range pl.decSlots {
				if s.Addr == pl.slotAddr || s.Atomic.IsEmpty() || s.Atomic.IsHistory() ||
					s.Atomic.FP() != pl.fp {
					continue
				}
				pl.swCands = append(pl.swCands, s)
			}
		}
		if pl.swi < len(pl.swCands) {
			pl.st = sSweepObjects
		}
	case sSweepObjects:
		for _, r := range res {
			pl.swi++
			dec := decodeObject(r.Data)
			if dec.ok && bytes.Equal(dec.key, pl.key) {
				// A racing write published the same key into another slot
				// after our CAS; that copy is newer — ours must yield.
				pl.c.dropMigrated(pl.slotAddr, pl.want, pl.tenant)
				pl.outcome = setPresent
				pl.st = sDone
				return
			}
		}
	}
}

// classifyThrough runs the post-candidate classification for every bucket
// read so far (buckets [doneBkt, upTo)), with the shared precedence: a
// bucket's key match beats its reclaimable slot beats the next bucket. In
// migrate mode a match anywhere wins first (absence must cover both
// buckets) and the reclaimable slot is only committed once the scan is
// complete.
func (pl *setPlan) classifyThrough(upTo int) {
	if pl.migrate {
		for i := range pl.cands {
			c := &pl.cands[i]
			if c.got && c.dec.ok && bytes.Equal(c.dec.key, pl.key) {
				pl.outcome = setPresent // newer copy already here; it wins
				pl.st = sDone
				return
			}
		}
		for b := pl.doneBkt; b < upTo; b++ {
			if !pl.haveIns {
				pl.findFree(b)
			}
		}
		pl.doneBkt = upTo
		if upTo >= len(pl.buckets) {
			pl.finishScan()
		}
		// else: Step continues with the next bucket.
		return
	}
	for b := pl.doneBkt; b < upTo; b++ {
		for i := range pl.cands {
			c := &pl.cands[i]
			if c.bkt != b || !c.got {
				continue
			}
			if c.dec.ok && bytes.Equal(c.dec.key, pl.key) {
				if pl.c.cl.tenantMode && c.dec.expired(pl.rnow) {
					pl.expUpd = true
				}
				pl.startUpdate(*c)
				return
			}
		}
		pl.doneBkt = b + 1
		if pl.findFree(b) {
			pl.startInsert() // insert into the main bucket when possible
			return
		}
	}
	if upTo >= len(pl.buckets) {
		pl.finishScan()
	}
}

// findFree searches bucket b for the first reclaimable slot.
func (pl *setPlan) findFree(b int) bool {
	if pl.haveIns {
		return true
	}
	for i := range pl.bucketSlots[b] {
		if pl.c.hist.Reclaimable(pl.bucketSlots[b][i]) {
			pl.insSlot = pl.bucketSlots[b][i]
			pl.haveIns = true
			return true
		}
	}
	return false
}

// finishScan ends the bucket scan without an update match: commit the
// insert when a reclaimable slot was found, else report full buckets.
func (pl *setPlan) finishScan() {
	if pl.haveIns {
		pl.startInsert()
		return
	}
	pl.outcome = setNoFree
	pl.st = sDone
}

// startUpdate stages the out-of-place UPDATE: write the new value to a
// fresh block and CAS the slot's pointer (as in RACE hashing).
func (pl *setPlan) startUpdate(cand setCand) {
	pl.mode = pUpdate
	pl.updSlot, pl.updDec = cand.slot, cand.dec
	pl.stage(pl.updSlot.Atomic.FP())
}

// startInsert stages the INSERT into the claimed reclaimable slot.
func (pl *setPlan) startInsert() {
	pl.mode = pInsert
	pl.stage(pl.fp)
}

// stage allocates the object block (may evict, with serial verbs — the
// same off-plan work the hand-written paths did between stages), builds
// its image and the publishing atomic, and advances to the WRITE stage.
func (pl *setPlan) stage(fp byte) {
	c := pl.c
	pl.now = c.p.Now()
	pl.addr = c.allocOrEvict(pl.size)
	var ext []byte
	switch {
	case pl.mode == pUpdate && pl.expUpd:
		// Superseding an EXPIRED copy: the lease lapsed, so its access
		// history is void — stage fresh metadata exactly as an insert.
		pl.extBuf = c.initExts(pl.extBuf, pl.size, pl.now)
		ext = pl.extBuf
	case pl.mode == pUpdate:
		pl.extBuf = c.updateExt(pl.extBuf, pl.updSlot, pl.updDec, pl.size, pl.now)
		ext = pl.extBuf
	case pl.migrate:
		// The extension layout matches across nodes (same expert list), so
		// the old node's expert metadata transfers verbatim; pad or trim
		// defensively in case configurations ever diverge.
		pl.extBuf = grow(pl.extBuf, c.cl.totalExt)
		n := copy(pl.extBuf, pl.mExt)
		clear(pl.extBuf[n:])
		ext = pl.extBuf
	default:
		pl.extBuf = c.initExts(pl.extBuf, pl.size, pl.now)
		ext = pl.extBuf
	}
	// Every staged image gets a fresh incarnation stamp — unconditionally,
	// because nextVer is a plain counter (no RNG, no verbs) and an
	// unconditional stamp keeps the image layout identical whether or not
	// speculative Gets are enabled.
	pl.ver = c.nextVer()
	pl.data = encodeObjectInto(pl.data, pl.key, pl.value, ext, pl.tenant, pl.expiry, pl.ver)
	pl.want = hashtable.EncodeAtomic(fp, hashtable.SizeToBlocks(pl.size), pl.addr)
	pl.st = sWrite
}

// ---------------------------------------------------------------- Delete ----

// delPlan states.
const (
	dBuckets = iota
	dObjects
	dCAS
	dDone
)

// delPlan removes every live copy of a key: stage bucket READs, stage
// candidate object READs, stage delete CASes. The scan covers BOTH
// buckets to completion rather than stopping at the first match: a
// reshard's migration window can briefly leave two live copies of a key,
// and deleting only the first would let the survivor resurrect it. A
// lost CAS means someone else deleted or replaced that copy — keep going.
type delPlan struct {
	c       *Client
	key     []byte
	kh      uint64
	fp      byte
	buckets [2]int

	st      int
	bi      int
	cands   []hashtable.Slot
	ci      int
	matches []hashtable.Slot
	mi      int

	// matchMeta parallels matches: the tenant each matched copy is
	// charged to, and whether its lease had lapsed — an expired copy is
	// still CASed away and freed, but does not count toward `deleted`
	// (observationally it was already gone; the TTL≡Delete property test
	// pins exactly this).
	matchMeta []delMatch
	rnow      int64

	deleted bool

	// Pooled scratch, kept across reset (see getPlan).
	verbs    []exec.Verb
	bktBuf   [][]byte
	objBufs  [][]byte
	decSlots []hashtable.Slot
}

// delMatch is the per-match tenancy view of a delPlan candidate.
type delMatch struct {
	tenant  TenantID
	expired bool
}

// reset re-aims the plan at key, keeping its scratch buffers.
func (pl *delPlan) reset(c *Client, key []byte) {
	kh := hashtable.KeyHash(key)
	pl.c, pl.key, pl.kh = c, key, kh
	pl.fp = hashtable.Fingerprint(kh)
	pl.buckets = c.keyBuckets(kh)
	pl.st, pl.bi, pl.ci, pl.mi = dBuckets, 0, 0, 0
	pl.cands = pl.cands[:0]
	pl.matches = pl.matches[:0]
	pl.matchMeta = pl.matchMeta[:0]
	pl.rnow = c.p.Now()
	pl.deleted = false
}

func (pl *delPlan) Step(eager bool) []exec.Verb {
	for {
		switch pl.st {
		case dBuckets:
			if pl.bi >= len(pl.buckets) {
				if pl.mi < len(pl.matches) {
					pl.st = dCAS
					continue
				}
				pl.st = dDone
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.bi; i < stageEnd(eager, pl.bi, len(pl.buckets)); i++ {
				pl.verbs = append(pl.verbs, pl.c.bucketVerb(pl.buckets[i], bufAt(&pl.bktBuf, i)))
			}
			return pl.verbs
		case dObjects:
			if pl.ci >= len(pl.cands) {
				pl.st = dBuckets
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.ci; i < stageEnd(eager, pl.ci, len(pl.cands)); i++ {
				pl.verbs = append(pl.verbs, pl.c.objectVerb(pl.cands[i], bufAt(&pl.objBufs, i)))
			}
			return pl.verbs
		case dCAS:
			if pl.mi >= len(pl.matches) {
				pl.st = dObjects // lazy: resume the candidate scan where it left off
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.mi; i < stageEnd(eager, pl.mi, len(pl.matches)); i++ {
				pl.verbs = append(pl.verbs, casVerb(pl.c, pl.matches[i].Addr, pl.matches[i].Atomic, 0))
			}
			return pl.verbs
		default:
			return nil
		}
	}
}

func (pl *delPlan) Absorb(res []exec.Result) {
	switch pl.st {
	case dBuckets:
		for _, r := range res {
			b := pl.buckets[pl.bi]
			pl.bi++
			pl.decSlots = pl.c.cl.Layout.AppendBucket(pl.decSlots[:0], b, r.Data)
			for _, s := range pl.decSlots {
				if s.Atomic.IsEmpty() || s.Atomic.IsHistory() || s.Atomic.FP() != pl.fp {
					continue
				}
				pl.cands = append(pl.cands, s)
			}
		}
		if pl.ci < len(pl.cands) {
			pl.st = dObjects
		}
	case dObjects:
		for _, r := range res {
			s := pl.cands[pl.ci]
			pl.ci++
			dec := decodeObject(r.Data)
			if dec.ok && bytes.Equal(dec.key, pl.key) {
				pl.matches = append(pl.matches, s)
				pl.matchMeta = append(pl.matchMeta, delMatch{
					tenant:  dec.tenant,
					expired: pl.c.cl.tenantMode && dec.expired(pl.rnow),
				})
			}
		}
		if pl.mi < len(pl.matches) {
			pl.st = dCAS // serial path CASes each match as it is found
		}
	case dCAS:
		for _, r := range res {
			s, m := pl.matches[pl.mi], pl.matchMeta[pl.mi]
			pl.mi++
			if r.Swapped {
				pl.c.freeStampAsync(s.Atomic.Pointer())
				pl.c.alloc.Free(s.Atomic.Pointer(), s.Atomic.SizeBytes())
				pl.c.fc.Forget(s.Addr)
				pl.c.accountTenant(m.tenant, -int64(s.Atomic.SizeBytes()))
				if !m.expired {
					pl.deleted = true
				}
			}
			// On a lost CAS race someone else deleted or replaced this
			// copy; keep scanning for further copies either way.
		}
	}
}

// ------------------------------------------------------------- Eviction ----

// evictPlan states.
const (
	evSample = iota
	evExt
	evFAA
	evCAS
	evLWH
	evDone
)

// evictPlan outcomes.
const (
	evictPending = iota
	evictWon     // a victim was reclaimed (block freed, history inserted)
	evictNone    // the sample window held no live object
	evictLost    // the victim CAS lost a race; resample
)

// evictPlan is one sample-based eviction attempt (§4.2) as a verb plan:
// stage the sample-window READ(s), stage any extension-metadata READs,
// then — once every expert has nominated and the pre-drawn deciding
// expert picked the victim — stage the history-ID FAA and the victim CAS
// (plain CAS-to-empty when adaptive caching is off). The sample start
// and the deciding expert are drawn from the client RNG at CONSTRUCTION
// time, so a batch of plans consumes the same random sequence whichever
// strategy executes it — the hinge of the Serial/Doorbell equivalence.
//
// CAS losses and empty windows finish the plan with that outcome; the
// drivers (evictOne, evictBatch) resample with a fresh plan, bounded by
// evictAttempts. fullScan marks a window that covered the whole table:
// an empty outcome is then definitive (nothing evictable), not a miss
// of the sample.
type evictPlan struct {
	c        *Client
	k        int
	start    int
	window   int
	deciding int
	now      int64 // priority-evaluation time, fixed at construction
	fullScan bool

	// Tenancy: overQ snapshots the over-quota tenant set at reset (one
	// consistent set per batch under either strategy — evictBatch
	// acquires every plan before running any); expVictim marks a victim
	// reclaimed because its lease lapsed — a plain CAS-to-empty with no
	// history entry and no expert blamed, the Delete-equivalent form.
	overQ     uint64
	expVictim bool

	st        int
	sampleOps []rdma.BatchOp
	slots     []hashtable.Slot
	cands     []candidate
	ei        int // next candidate ext READ to absorb

	victim candidate
	bitmap uint64
	prio   []float64
	histID uint64

	outcome int

	// Pooled scratch, kept across reset: verb-group emission, sample and
	// extension READ delivery buffers, and the per-expert nominee list.
	verbs   []exec.Verb
	sampBuf [][]byte
	extBufs [][]byte
	nomBuf  []int
}

// newEvictPlan draws the attempt's randomness (window start, then the
// deciding expert — PickExpert depends only on the current weights, not
// on the sample, so it can be drawn up front) and precomputes the sample
// verbs. Construction order therefore fixes the random sequence of a
// batch regardless of execution strategy; the priority-evaluation time
// is captured here too, so time-dependent experts (LRFU, Hyperbolic)
// rank candidates identically under either strategy.
func (c *Client) newEvictPlan() *evictPlan {
	pl := &evictPlan{}
	pl.reset(c)
	return pl
}

// reset re-draws the attempt's randomness in construction order (window
// start, then deciding expert — pooling must consume the client RNG
// exactly as a fresh plan would) and rebuilds the sample verbs into the
// plan's scratch.
func (pl *evictPlan) reset(c *Client) {
	pl.c = c
	pl.k = c.cl.opts.SampleK
	pl.window = c.evictWindow()
	pl.now = c.p.Now()
	pl.st = evSample
	pl.ei = 0
	pl.slots = pl.slots[:0]
	pl.cands = pl.cands[:0]
	pl.victim = candidate{}
	pl.bitmap = 0
	pl.prio = pl.prio[:0]
	pl.histID = 0
	pl.outcome = evictPending
	n := c.cl.Layout.NumSlots()
	pl.start = c.p.Rand().Intn(n)
	pl.deciding = 0
	if c.adapt != nil {
		pl.deciding = c.adapt.PickExpert(c.p.Rand())
	}
	// Snapshotted AFTER the RNG draws (it consumes none, so the random
	// sequence is untouched) and at reset time, so every plan of a batch
	// judges quotas against the same aggregation.
	pl.overQ = 0
	pl.expVictim = false
	if c.cl.tenantMode {
		pl.overQ = c.cl.overQuotaMask()
	}
	pl.fullScan = pl.window >= n
	pl.sampleOps = c.cl.Layout.AppendSampleOps(pl.sampleOps[:0], pl.start, pl.window)
	for i := range pl.sampleOps {
		b := bufAt(&pl.sampBuf, i)
		*b = grow(*b, pl.sampleOps[i].Len)
		pl.sampleOps[i].Buf = *b
	}
}

// evictWindow sizes the sample READ so that ~SampleK live objects are
// expected in it at the table's CURRENT occupancy — sizing against
// ExpectedObjects instead (the design load) made near-empty tables
// sample tiny windows that mostly hold empty slots, burning an attempt
// (and a READ) per resample. The live count is estimated from the heap
// accounting divided by the running victim-size average (seeded at one
// block, so before any eviction the estimate is an upper bound on the
// object count and the window errs small — bounded by resampling). The
// window is clamped to the whole table; a full-table sample that finds
// nothing live is then proof that nothing is evictable.
func (c *Client) evictWindow() int {
	k, n := c.cl.opts.SampleK, c.cl.Layout.NumSlots()
	objBlocks := c.cl.avgVictimBlocks
	if objBlocks < 1 {
		objBlocks = 1
	}
	live := int(float64(c.cl.MN.UsedBytes) / (objBlocks * memnode.BlockSize))
	if live > c.cl.opts.ExpectedObjects {
		live = c.cl.opts.ExpectedObjects
	}
	if live < 1 {
		live = 1
	}
	window := k * (n/live + 1)
	if window > n {
		window = n
	}
	return window
}

func (pl *evictPlan) Step(eager bool) []exec.Verb {
	for {
		switch pl.st {
		case evSample:
			// No short-circuit between the (at most two) wrap-around READs:
			// emit them as one group under either traversal, exactly as the
			// synchronous Sample issues them back to back.
			pl.verbs = pl.verbs[:0]
			for _, op := range pl.sampleOps {
				pl.verbs = append(pl.verbs, exec.Verb{EP: pl.c.ep, Op: op})
			}
			return pl.verbs
		case evExt:
			if pl.ei >= len(pl.cands) {
				pl.nominate()
				continue
			}
			pl.verbs = pl.verbs[:0]
			for i := pl.ei; i < stageEnd(eager, pl.ei, len(pl.cands)); i++ {
				op := pl.c.extReadOp(pl.cands[i].slot)
				b := bufAt(&pl.extBufs, i)
				*b = grow(*b, op.Len)
				op.Buf = *b
				pl.verbs = append(pl.verbs, exec.Verb{EP: pl.c.ep, Op: op})
			}
			return pl.verbs
		case evFAA:
			pl.verbs = append(pl.verbs[:0], exec.Verb{EP: pl.c.ep, Op: pl.c.hist.NextIDOp()})
			return pl.verbs
		case evCAS:
			swap := hashtable.AtomicField(0)
			if pl.c.adapt != nil && !pl.expVictim {
				swap = history.EntryFor(pl.victim.slot, pl.histID)
			}
			pl.verbs = append(pl.verbs[:0], casVerb(pl.c, pl.victim.slot.Addr, pl.victim.slot.Atomic, swap))
			return pl.verbs
		case evLWH:
			// DisableLWH ablation (cold): a conventional remote FIFO history
			// costs an actual queue enqueue — FAA the tail, WRITE the entry.
			pl.verbs = append(pl.verbs[:0],
				exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
					Kind: rdma.BatchFAA, Addr: memnode.HistCounterAddr + 8, Delta: 1,
				}},
				exec.Verb{EP: pl.c.ep, Op: rdma.BatchOp{
					Kind: rdma.BatchWrite, Addr: memnode.HistCounterAddr + 16,
					//dittolint:allow hotalloc (DisableLWH ablation branch: cold, runs only with the flag set)
					Data: make([]byte, 40),
				}})
			return pl.verbs
		default:
			return nil
		}
	}
}

func (pl *evictPlan) Absorb(res []exec.Result) {
	c := pl.c
	switch pl.st {
	case evSample:
		for i, r := range res {
			pl.slots = c.cl.Layout.AppendSlots(pl.slots, pl.sampleOps[i].Addr, r.Data)
		}
		c.Stats.SampledSlots += int64(len(pl.slots))
		for _, s := range pl.slots {
			if cand, ok := c.liveCandidate(s); ok {
				pl.cands = append(pl.cands, cand)
			}
		}
		if len(pl.cands) == 0 {
			pl.outcome = evictNone
			pl.st = evDone
			return
		}
		if c.needsExtRead() {
			pl.st = evExt
			return
		}
		pl.nominate()
	case evExt:
		for _, r := range res {
			c.applyExt(&pl.cands[pl.ei], r.Data)
			pl.ei++
		}
	case evFAA:
		pl.histID = c.hist.AbsorbID(res[0].Old)
		pl.st = evCAS
	case evCAS:
		if !res[0].Swapped {
			pl.outcome = evictLost // raced with another client; resample
			pl.st = evDone
			return
		}
		if c.adapt != nil && !pl.expVictim {
			c.hist.FinishInsert(pl.victim.slot.Addr, pl.bitmap)
			if c.cl.opts.DisableLWH {
				pl.st = evLWH
				return
			}
		}
		pl.finishWin()
	case evLWH:
		pl.finishWin()
	}
}

// nominate runs the local half of the attempt once the sample (and any
// extension metadata) is in: every expert nominates its lowest-priority
// candidate, the pre-drawn deciding expert's nominee becomes the victim,
// and the expert bitmap records who shares the blame. Advances to the
// history FAA (adaptive) or straight to the victim CAS.
func (pl *evictPlan) nominate() {
	c := pl.c
	// The paper samples K OBJECTS; the window covers more slots so K live
	// ones are expected — trim any surplus, as the hand-written path did.
	if len(pl.cands) > pl.k {
		pl.cands = pl.cands[:pl.k]
	}
	if c.cl.tenantMode {
		// Lease expiry first: a lapsed entry is dead weight no policy
		// should out-rank. It is reclaimed with a plain CAS-to-empty —
		// no history entry, no expert blamed — observationally the same
		// removal an explicit Delete would have done.
		for i := range pl.cands {
			if ex := pl.cands[i].expiry; ex != 0 && ex <= pl.now {
				pl.victim = pl.cands[i]
				pl.expVictim = true
				pl.st = evCAS
				return
			}
		}
		// Quota enforcement: while any tenant is over quota, the experts
		// nominate only among over-quota candidates — an over-quota
		// tenant can never displace an in-quota one that has victims
		// available. A sample with no over-quota candidate is treated
		// like a lost CAS and resampled (the over-quota tenant's usage
		// exceeds its quota, so victims exist somewhere in the table);
		// only a FULL-table scan with no over-quota candidate proves no
		// such victim remains, and then the global policy may run over
		// whatever is left.
		if pl.overQ != 0 {
			n := 0
			for i := range pl.cands {
				if pl.overQ&(1<<uint(pl.cands[i].tenant)) != 0 {
					pl.cands[n] = pl.cands[i]
					n++
				}
			}
			if n > 0 {
				pl.cands = pl.cands[:n]
			} else if !pl.fullScan {
				pl.outcome = evictLost
				pl.st = evDone
				return
			}
		}
	}
	now := pl.now
	pl.nomBuf, pl.prio = pl.nomBuf[:0], pl.prio[:0]
	for range c.experts {
		pl.nomBuf = append(pl.nomBuf, 0)
		pl.prio = append(pl.prio, 0)
	}
	nominee := pl.nomBuf
	for e, a := range c.experts {
		best, bestP := -1, 0.0
		for i := range pl.cands {
			m := pl.cands[i].meta
			if off := c.extOff[e]; a.ExtSize() > 0 {
				m.Ext = pl.cands[i].meta.Ext[off : off+a.ExtSize()]
			}
			p := a.Priority(&m, now)
			if best < 0 || p < bestP {
				best, bestP = i, p
			}
		}
		nominee[e], pl.prio[e] = best, bestP
	}
	pl.victim = pl.cands[nominee[pl.deciding]]
	// Expert bitmap: every expert whose nominee is this victim shares the
	// blame if the eviction turns out to be a regret.
	for e := range c.experts {
		if pl.cands[nominee[e]].slot.Addr == pl.victim.slot.Addr {
			pl.bitmap |= 1 << uint(e)
		}
	}
	if c.adapt != nil {
		pl.st = evFAA
	} else {
		pl.st = evCAS
	}
}

// finishWin applies the local effects of a won eviction: expert
// penalties-on-evict, the block free, FC-cache cleanup, stats, and the
// hot-key hook that lets the replication layer demote an entry whose
// primary copy was just evicted.
func (pl *evictPlan) finishWin() {
	c := pl.c
	for e, a := range c.experts {
		if pl.bitmap&(1<<uint(e)) == 0 {
			continue
		}
		if obs, ok := a.(cachealgo.EvictionObserver); ok {
			obs.OnEvict(pl.prio[e])
		}
	}
	c.freeStampAsync(pl.victim.slot.Atomic.Pointer())
	c.alloc.Free(pl.victim.slot.Atomic.Pointer(), pl.victim.slot.Atomic.SizeBytes())
	c.fc.Forget(pl.victim.slot.Addr)
	c.accountTenant(pl.victim.tenant, -int64(pl.victim.slot.Atomic.SizeBytes()))
	c.cl.noteVictimBlocks(int(pl.victim.slot.Atomic.SizeBlocks()))
	c.Stats.Evictions++
	if c.cl.onEvictHash != nil {
		c.cl.onEvictHash(pl.victim.slot.Hash)
	}
	pl.outcome = evictWon
	pl.st = evDone
}

// ------------------------------------------------------------- Migration ----

// migratePlan outcomes.
const (
	migMoved    = iota // insert published, survived the sweep, source removed
	migSkipped         // destination copy was newer (or ours yielded); source removal was GC
	migRetry           // the source slot changed under the copy: re-read and redo
	migFallback        // destination complication (full bucket / lost CAS): retry the slot
)

// migratePlan moves one live object between memory nodes: the
// destination's insert-if-absent setPlan (migrate mode, including the
// post-publish duplicate sweep), then the source delete CAS that verifies
// the copy did not change while in flight. If that CAS fails — the key
// was concurrently deleted, evicted, or replaced — the fresh insert is
// undone with a precise CAS so a dead value can never resurface.
type migratePlan struct {
	src *Client
	s   hashtable.Slot
	ins *setPlan

	st       int // 0 insert phase, 1 source CAS, 2 done
	inserted bool
	outcome  int
}

func newMigratePlan(src, dst *Client, s hashtable.Slot, dec decodedObject) *migratePlan {
	key := append([]byte(nil), dec.key...)
	val := append([]byte(nil), dec.value...)
	ext := append([]byte(nil), dec.ext...)
	return &migratePlan{
		src: src, s: s,
		ins: dst.newMigrateSetPlan(key, val, ext, s.InsertTs, s.LastTs, s.Freq,
			dec.tenant, dec.expiry),
	}
}

func (pl *migratePlan) Step(eager bool) []exec.Verb {
	if pl.st != 0 {
		return nil
	}
	if vs := pl.ins.Step(eager); len(vs) > 0 {
		return vs
	}
	switch pl.ins.outcome {
	case setDone:
		pl.inserted = true
	case setPresent:
		pl.inserted = false
	default: // setNoFree / setCASLost: destination needs the serial retry loop
		pl.outcome = migFallback
		pl.st = 2
		return nil
	}
	pl.st = 1
	//dittolint:allow hotalloc (migrate plans are cold-path resharder work and are not pooled — see pool.go)
	return []exec.Verb{casVerb(pl.src, pl.s.Addr, pl.s.Atomic, 0)}
}

func (pl *migratePlan) Absorb(res []exec.Result) {
	if pl.st == 0 {
		pl.ins.Absorb(res)
		return
	}
	pl.st = 2
	if res[0].Swapped {
		pl.src.freeStampAsync(pl.s.Atomic.Pointer())
		pl.src.alloc.Free(pl.s.Atomic.Pointer(), pl.s.Atomic.SizeBytes())
		pl.src.fc.Forget(pl.s.Addr)
		// The moved copy's bytes leave the SOURCE node's accounting (the
		// destination charged them at its insert CAS).
		pl.src.accountTenant(pl.ins.tenant, -int64(pl.s.Atomic.SizeBytes()))
		// inserted=false here means the destination already held a newer
		// client-written copy: the source removal is garbage collection,
		// not a migration.
		if pl.inserted {
			pl.outcome = migMoved
		} else {
			pl.outcome = migSkipped
		}
		return
	}
	// The source slot changed while we copied it: if we inserted, our copy
	// is stale — take it back. The driver re-reads the slot and redoes the
	// copy with the fresh value (or gives up if the key is gone).
	if pl.inserted {
		pl.ins.c.dropMigrated(pl.ins.slotAddr, pl.ins.want, pl.ins.tenant)
	}
	pl.outcome = migRetry
}

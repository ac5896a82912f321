package core

import (
	"encoding/binary"

	"ditto/internal/cachealgo"
	"ditto/internal/exec"
	"ditto/internal/hashtable"
	"ditto/internal/rdma"
)

// candidate pairs a sampled slot with the metadata view the priority
// functions consume — plus, in tenant mode, the owning tenant and lease
// expiry parsed from the object header the ext READ covers.
type candidate struct {
	slot   hashtable.Slot
	meta   cachealgo.Metadata
	tenant TenantID
	expiry int64
}

// evictOne performs one sample-based eviction (§4.2): sample a window of
// slots with one READ, let every expert nominate its lowest-priority
// candidate, pick the deciding expert by weight, evict its nominee, and
// (when adaptive) convert the victim's slot into a lightweight history
// entry. The verb sequence is the evictPlan in plan.go — the same plan
// the background reclaimer and the over-budget drains run as doorbell
// batches — traversed serially here.
//
// It returns false when no object could be evicted after bounded
// resampling (e.g. an empty cache).
func (c *Client) evictOne() bool { return c.evictBatch(1, exec.Serial) == 1 }

// evictBatch reclaims up to n victims with evict plans executed under
// strat: exec.Doorbell samples several windows and CASes several victims
// per round (one doorbell per stage across the batch), exec.Serial runs
// the same plans one verb per round trip. CAS losers and empty windows
// resample in later rounds, bounded by evictAttempts plan executions in
// total; a full-table sample that found nothing live ends the batch
// early — nothing is evictable. Returns the number of victims reclaimed.
func (c *Client) evictBatch(n int, strat exec.Strategy) int {
	won, attempts := 0, 0
	for won < n && attempts < evictAttempts {
		m := n - won
		if rem := evictAttempts - attempts; m > rem {
			m = rem
		}
		// Pooled plans on the eviction-specific scratch (runEv): inline
		// eviction can fire while an M-operation's doorbell round is
		// mid-absorb on runOps, so the two must not share a slice.
		plans := c.evPlans[:0]
		run := c.runEv[:0]
		for i := 0; i < m; i++ {
			pl := c.acquireEvictPlan()
			plans = append(plans, pl)
			run = append(run, pl)
		}
		c.evPlans, c.runEv = plans, run
		attempts += m
		c.runner.RunPlans(strat, run)
		exhausted := false
		for _, pl := range plans {
			switch pl.outcome {
			case evictWon:
				won++
			case evictNone:
				if pl.fullScan {
					// The sample covered every slot and found nothing live:
					// nothing further is evictable. Finish counting this
					// round's wins (later plans in the batch may still have
					// reclaimed something) before giving up.
					exhausted = true
					continue
				}
				c.Stats.EvictResamples++
			case evictLost:
				c.Stats.EvictResamples++
			}
		}
		for _, pl := range plans {
			c.releaseEvictPlan(pl)
		}
		if exhausted {
			return won
		}
	}
	return won
}

// drainOverBudget evicts until the node is back under budget, reclaiming
// up to max victims, with rounds sized by the remaining deficit and the
// running victim-size estimate — so a heap shrunk by many blocks frees
// them as multi-victim doorbell rounds instead of one victim per RTT
// chain. With a background reclaimer enabled the inline work is skipped
// entirely: the drain kicks the reclaimer and lets the write proceed.
func (c *Client) drainOverBudget(max int) {
	if !c.cl.MN.OverBudget() {
		return
	}
	if c.cl.reclaimEnabled {
		c.cl.kickReclaimer()
		return
	}
	for done := 0; done < max && c.cl.MN.OverBudget(); {
		n := c.cl.victimsFor(-c.cl.MN.FreeBytes())
		if n > max-done {
			n = max - done
		}
		got := c.evictBatch(n, maintenance)
		if got == 0 {
			return
		}
		done += got
	}
}

// liveCandidate filters one sampled slot down to an eviction candidate
// with the default metadata view attached — the one definition of the
// slot filter and the metadata/frequency convention, shared by the
// serial bucket-eviction path and the evictPlan's sample stage.
func (c *Client) liveCandidate(s hashtable.Slot) (candidate, bool) {
	if s.Atomic.IsEmpty() || s.Atomic.IsHistory() {
		return candidate{}, false
	}
	// Frequency convention (shared with noteHit/updateExt): remote
	// snapshot plus the buffered delta. Sampling is not an access, so
	// no +1 and no fc.Add here.
	return candidate{slot: s, meta: cachealgo.Metadata{
		Size:     s.Atomic.SizeBytes(),
		InsertTs: s.InsertTs,
		LastTs:   s.LastTs,
		Freq:     s.Freq + c.fc.PendingDelta(s.Addr),
	}}, true
}

// needsExtRead reports whether candidates cost one more READ each:
// extension metadata is configured, the DisableSFHT ablation stores ALL
// metadata with the object, or tenant mode needs each candidate's
// header (tenant tag + lease expiry) for quota/TTL-aware nomination.
func (c *Client) needsExtRead() bool {
	return c.cl.opts.DisableSFHT || c.cl.tenantMode || c.cl.totalExt > 0
}

// extReadOp is that READ — the one definition of its addressing —
// and applyExt attaches its completion to the candidate. Tenant mode
// uses the header-inclusive shape: the same single fixed-size READ per
// candidate, widened by the 24-byte header.
func (c *Client) extReadOp(s hashtable.Slot) rdma.BatchOp {
	if c.cl.opts.DisableSFHT || c.cl.tenantMode {
		// Metadata stored with objects: the READ covers the header too.
		return rdma.BatchOp{
			Kind: rdma.BatchRead, Addr: s.Atomic.Pointer(), Len: objHeader + c.cl.totalExt,
		}
	}
	return rdma.BatchOp{
		Kind: rdma.BatchRead, Addr: s.Atomic.Pointer() + objHeader, Len: c.cl.totalExt,
	}
}

func (c *Client) applyExt(cand *candidate, data []byte) {
	if c.cl.opts.DisableSFHT || c.cl.tenantMode {
		if c.cl.tenantMode {
			cand.tenant = TenantID(data[objTenantOff])
			cand.expiry = int64(binary.LittleEndian.Uint64(data[objExpiryOff:]))
		}
		if c.cl.totalExt > 0 {
			cand.meta.Ext = data[objHeader:]
		}
		return
	}
	cand.meta.Ext = data
}

// buildCandidates filters a sample down to live object slots and attaches
// metadata. With the sample-friendly hash table all default metadata
// arrived with the sample READ; extension metadata (or, under the
// DisableSFHT ablation, all metadata) costs one more READ per candidate.
func (c *Client) buildCandidates(slots []hashtable.Slot) []candidate {
	cands := make([]candidate, 0, len(slots))
	for _, s := range slots {
		cand, ok := c.liveCandidate(s)
		if !ok {
			continue
		}
		if c.needsExtRead() {
			c.applyExt(&cand, c.issueRead(c.extReadOp(s)))
		}
		cands = append(cands, cand)
	}
	return cands
}

// bucketEvict frees a slot in the key's own buckets when both are full of
// live objects and valid history entries: the deciding expert's
// lowest-priority live object is deleted outright (slot reclaimed
// immediately). Rare by construction (the table is oversized), counted in
// Stats.BucketEvictions.
func (c *Client) bucketEvict(slots []hashtable.Slot) bool {
	cands := c.buildCandidates(slots)
	if len(cands) == 0 {
		return false
	}
	// Tenant policies mirror evictPlan.nominate: an expired lease is
	// reclaimed first (Delete-equivalent, so no expert is consulted or
	// blamed), then the candidate set narrows to over-quota tenants when
	// any is present — bucket pressure must not evict an in-quota
	// tenant's key while an over-quota tenant occupies the same bucket.
	if c.cl.tenantMode {
		now := c.p.Now()
		for i := range cands {
			if ex := cands[i].expiry; ex != 0 && ex <= now {
				return c.takeBucketVictim(cands[i], nil, 0)
			}
		}
		if mask := c.cl.overQuotaMask(); mask != 0 {
			n := 0
			for i := range cands {
				if mask&(1<<uint(cands[i].tenant)) != 0 {
					cands[n] = cands[i]
					n++
				}
			}
			if n > 0 {
				cands = cands[:n]
			}
		}
	}
	deciding := 0
	if c.adapt != nil {
		deciding = c.adapt.PickExpert(c.p.Rand())
	}
	a := c.experts[deciding]
	now := c.p.Now()
	best, bestP := -1, 0.0
	for i := range cands {
		m := cands[i].meta
		if off := c.extOff[deciding]; a.ExtSize() > 0 {
			m.Ext = cands[i].meta.Ext[off : off+a.ExtSize()]
		}
		p := a.Priority(&m, now)
		if best < 0 || p < bestP {
			best, bestP = i, p
		}
	}
	return c.takeBucketVictim(cands[best], a, bestP)
}

// takeBucketVictim claims one bucket-eviction victim: CAS the slot
// empty, free the object, and settle counters. blamed is nil for an
// expired-lease victim — reclaiming a dead lease is Delete-equivalent,
// so no expert earns the eviction credit.
func (c *Client) takeBucketVictim(victim candidate, blamed cachealgo.Algorithm, p float64) bool {
	if _, won := c.ht.CASAtomic(victim.slot.Addr, victim.slot.Atomic, 0); !won {
		return false
	}
	if obs, ok := blamed.(cachealgo.EvictionObserver); ok {
		obs.OnEvict(p)
	}
	c.freeStampAsync(victim.slot.Atomic.Pointer())
	c.alloc.Free(victim.slot.Atomic.Pointer(),
		victim.slot.Atomic.SizeBytes())
	c.fc.Forget(victim.slot.Addr)
	c.accountTenant(victim.tenant, -int64(victim.slot.Atomic.SizeBytes()))
	c.cl.noteVictimBlocks(int(victim.slot.Atomic.SizeBlocks()))
	c.Stats.Evictions++
	c.Stats.BucketEvictions++
	if c.cl.onEvictHash != nil {
		c.cl.onEvictHash(victim.slot.Hash)
	}
	return true
}

// reclaimOldestHistory frees the bucket-local history entry closest to
// expiry so an insert can proceed when a bucket is saturated with valid
// history entries (shortening the logical FIFO for those entries only).
func (c *Client) reclaimOldestHistory(slots []hashtable.Slot) {
	best := -1
	var bestAge uint64
	for i, s := range slots {
		if !s.Atomic.IsHistory() {
			continue
		}
		if age := c.hist.Age(s.Atomic.Pointer()); best < 0 || age > bestAge {
			best, bestAge = i, age
		}
	}
	if best >= 0 {
		c.ht.CASAtomic(slots[best].Addr, slots[best].Atomic, 0)
	}
}

// report delivers an operation sample to the installed observer.
func (c *Client) report(op OpKind, start int64, hit bool) {
	if c.OnOp != nil {
		c.OnOp(op, c.p.Now()-start, hit)
	}
}

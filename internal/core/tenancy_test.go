package core

// Tenant isolation: quota-aware eviction, TTL leases, overload shedding,
// and per-tenant byte accounting. The three pinned invariants of the
// multi-tenancy PR live here:
//
//   (a) quota enforcement never evicts an in-quota tenant's key while an
//       over-quota tenant still has victims to give (model test),
//   (b) Serial and Doorbell reclaim choose identical quota victims
//       (seed-pinned equivalence), and
//   (c) a lapsed TTL lease is observationally identical to an explicit
//       Delete at the same virtual instant (property test).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// blockBytes mirrors the allocator's size-class rounding for the 64-byte
// test values under key(i)/value(i): one object = header + key + value,
// rounded up by the block allocator. Derived from live state rather than
// hardcoded so allocator retuning does not silently break the tests.
func liveBlockSize(cl *Cluster) int64 {
	return int64(cl.MN.UsedBytes)
}

// TestTenantQuotaSparesInQuotaTenants is pinned invariant (a): with a
// noisy tenant far over its quota sharing the cache with a small
// in-quota tenant, reclaiming until the noisy tenant is back under quota
// must never take one of the in-quota tenant's keys — the over-quota
// filter steers every nomination while over-quota victims exist.
func TestTenantQuotaSparesInQuotaTenants(t *testing.T) {
	const noisyKeys, quietKeys = 60, 4
	env := sim.NewEnv(17)
	cl := newTestCluster(env, 4000)
	// Arm tenant mode BEFORE any write: accounting is gated on it, and a
	// quota can only bind against accounted usage.
	cl.SetTenantQuota(1, 1<<40)
	cl.SetTenantQuota(2, 1<<40)
	env.Go("tenants", func(p *sim.Proc) {
		noisy := cl.NewClient(p)
		noisy.BindTenant(1)
		quiet := cl.NewClient(p)
		quiet.BindTenant(2)
		for i := 0; i < noisyKeys; i++ {
			noisy.Set(key(i), value(i))
		}
		for i := 0; i < quietKeys; i++ {
			quiet.Set(key(1000+i), value(i))
		}
		perKey := cl.TenantUsage(1) / noisyKeys
		// Quota allows ~1/4 of what the noisy tenant holds; the quiet
		// tenant's quota is far above its usage.
		cl.SetTenantQuota(1, perKey*noisyKeys/4)
		cl.SetTenantQuota(2, perKey*quietKeys*8)
		if !cl.OverQuota(1) || cl.OverQuota(2) {
			t.Fatalf("setup: overQuota(1)=%v overQuota(2)=%v", cl.OverQuota(1), cl.OverQuota(2))
		}
		for cl.OverQuota(1) {
			if !noisy.evictOne() {
				t.Fatal("nothing evictable while a tenant is over quota")
			}
			// The invariant: every reclaim taken while tenant 1 was over
			// quota came out of tenant 1.
			for i := 0; i < quietKeys; i++ {
				if _, ok := quiet.Get(key(1000 + i)); !ok {
					t.Fatalf("in-quota tenant lost key %d while tenant 1 was over quota (usage=%d quota=%d)",
						i, cl.TenantUsage(1), cl.TenantQuota(1))
				}
			}
		}
		if got := cl.TenantUsage(2); got != perKey*quietKeys {
			t.Errorf("tenant 2 usage changed: %d, want %d", got, perKey*quietKeys)
		}
		t.Logf("tenant 1 reclaimed to %d B (quota %d); tenant 2 untouched at %d B",
			cl.TenantUsage(1), cl.TenantQuota(1), cl.TenantUsage(2))
	})
	env.Run()
}

// TestQuotaVictimChoiceStrategyEquivalent is pinned invariant (b): with
// quotas active, a batch of reclaim plans picks exactly the same victims
// under exec.Serial and exec.Doorbell — the over-quota mask is
// snapshotted at plan reset (before any verb, consuming no randomness),
// so both strategies filter the same nomination sets. Same seed, same
// survivors, same per-tenant usage.
func TestQuotaVictimChoiceStrategyEquivalent(t *testing.T) {
	const noisyKeys, quietKeys, evictions = 2000, 600, 48
	run := func(strat exec.Strategy) (map[string]bool, [2]int64, Stats) {
		env := sim.NewEnv(17)
		cl := newTestCluster(env, 4000)
		cl.SetTenantQuota(1, 1<<40) // arm accounting before the writes
		cl.SetTenantQuota(2, 1<<40)
		survivors := make(map[string]bool)
		var usage [2]int64
		var st Stats
		env.Go("tenants", func(p *sim.Proc) {
			noisy := cl.NewClient(p)
			noisy.BindTenant(1)
			quiet := cl.NewClient(p)
			quiet.BindTenant(2)
			for i := 0; i < noisyKeys; i++ {
				noisy.Set(key(i), value(i))
			}
			for i := 0; i < quietKeys; i++ {
				quiet.Set(key(10000+i), value(i))
			}
			cl.SetTenantQuota(1, cl.TenantUsage(1)/2)
			got := 0
			for got < evictions {
				got += noisy.evictBatch(8, strat)
			}
			st = noisy.Stats
			usage = [2]int64{cl.TenantUsage(1), cl.TenantUsage(2)}
			probe := func(k []byte) {
				pl := noisy.acquireGetPlan(k)
				noisy.runner.Serial.Run(pl)
				if pl.hit {
					survivors[string(k)] = true
				}
			}
			for i := 0; i < noisyKeys; i++ {
				probe(key(i))
			}
			for i := 0; i < quietKeys; i++ {
				probe(key(10000 + i))
			}
		})
		env.Run()
		return survivors, usage, st
	}

	serialSurv, serialUsage, serialStats := run(exec.Serial)
	doorSurv, doorUsage, doorStats := run(exec.Doorbell)

	if serialStats.Evictions != evictions || doorStats.Evictions != evictions {
		t.Fatalf("evictions: serial=%d doorbell=%d, want %d",
			serialStats.Evictions, doorStats.Evictions, evictions)
	}
	if serialUsage != doorUsage {
		t.Fatalf("per-tenant usage diverged: serial=%v doorbell=%v", serialUsage, doorUsage)
	}
	if len(serialSurv) != len(doorSurv) {
		t.Fatalf("survivors differ: serial=%d doorbell=%d", len(serialSurv), len(doorSurv))
	}
	for k := range serialSurv {
		if !doorSurv[k] {
			t.Fatalf("key %s survived serial but not doorbell reclaim", k)
		}
	}
	// Quota steering must have done real work: the over-quota tenant
	// absorbed every eviction this seed produced.
	if quiet := quietKeys - countPrefix(serialSurv, "key-01"); quiet != 0 {
		t.Errorf("%d in-quota keys evicted under quota steering", quiet)
	}
}

func countPrefix(set map[string]bool, prefix string) int {
	n := 0
	for k := range set {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// TestTTLExpiryEquivalentToDelete is pinned invariant (c): pick a random
// subset of keys and either (A) store them with a TTL that lapses at
// horizon H, or (B) store them plain and explicitly Delete them at H.
// Every client-visible observation after H — Get, MGet, Delete's report,
// re-insert round trips — must be identical between the two runs.
func TestTTLExpiryEquivalentToDelete(t *testing.T) {
	const n = 64
	const ttl = 10 * sim.Millisecond
	observe := func(viaTTL bool) []string {
		env := sim.NewEnv(11)
		cl := newTestCluster(env, 1000)
		cl.SetTenantQuota(1, 1<<40) // tenant mode on; quota never binds
		var out []string
		env.Go("c", func(p *sim.Proc) {
			c := cl.NewClient(p)
			c.BindTenant(1)
			rng := rand.New(rand.NewSource(99))
			leased := make([]bool, n)
			for i := 0; i < n; i++ {
				leased[i] = rng.Intn(2) == 0
				if viaTTL && leased[i] {
					c.SetTTL(key(i), value(i), ttl)
				} else {
					c.Set(key(i), value(i))
				}
			}
			p.Sleep(ttl + sim.Millisecond) // past the lease horizon
			if !viaTTL {
				for i := 0; i < n; i++ {
					if leased[i] {
						c.Delete(key(i))
					}
				}
			}
			for i := 0; i < n; i++ {
				v, ok := c.Get(key(i))
				out = append(out, fmt.Sprintf("get %d %v %q", i, ok, v))
			}
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = key(i)
			}
			vals, oks := c.MGet(keys)
			for i := range keys {
				out = append(out, fmt.Sprintf("mget %d %v %q", i, oks[i], vals[i]))
			}
			// Delete of a lapsed lease reports false — exactly like a key
			// already deleted.
			for i := 0; i < n; i++ {
				out = append(out, fmt.Sprintf("del %d %v", i, c.Delete(key(i))))
			}
			// The key space is fully reusable afterwards in both worlds.
			for i := 0; i < n; i++ {
				c.Set(key(i), value(i+1))
				v, ok := c.Get(key(i))
				out = append(out, fmt.Sprintf("reset %d %v %q", i, ok, v))
			}
			if got := cl.TenantUsage(1); got != liveBlockSize(cl) {
				t.Errorf("usage %d != live bytes %d after churn", got, liveBlockSize(cl))
			}
		})
		env.Run()
		return out
	}

	ttlObs, delObs := observe(true), observe(false)
	if len(ttlObs) != len(delObs) {
		t.Fatalf("observation counts differ: %d vs %d", len(ttlObs), len(delObs))
	}
	for i := range ttlObs {
		if ttlObs[i] != delObs[i] {
			t.Fatalf("observation %d diverged:\n  ttl:    %s\n  delete: %s", i, ttlObs[i], delObs[i])
		}
	}
}

// TestExpiredEntryLifecycle pins the lease mechanics around invariant
// (c): a leased entry hits before the horizon, misses immediately after
// it WITHOUT any reader freeing it (readers stay write-free), and the
// eviction sampler then reclaims it preferentially — as a plain
// CAS-to-empty that blames no expert and writes no history entry.
func TestExpiredEntryLifecycle(t *testing.T) {
	env := sim.NewEnv(7)
	cl := newTestCluster(env, 1000)
	cl.SetTenantQuota(1, 1<<40)
	env.Go("c", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.BindTenant(1)
		c.SetTTL([]byte("lease"), []byte("v"), 5*sim.Millisecond)
		c.Set([]byte("keep"), []byte("v"))
		if _, ok := c.Get([]byte("lease")); !ok {
			t.Fatal("leased key missed before expiry")
		}
		used := cl.MN.UsedBytes
		p.Sleep(6 * sim.Millisecond)
		if _, ok := c.Get([]byte("lease")); ok {
			t.Fatal("lapsed lease still readable")
		}
		if cl.MN.UsedBytes != used {
			t.Fatalf("a reader reclaimed the expired block: used %d -> %d", used, cl.MN.UsedBytes)
		}
		evs := c.Stats.Evictions
		if !c.evictOne() {
			t.Fatal("eviction found nothing with an expired entry live")
		}
		if c.Stats.Evictions != evs+1 {
			t.Fatalf("evictions %d, want %d", c.Stats.Evictions, evs+1)
		}
		if _, ok := c.Get([]byte("keep")); !ok {
			t.Fatal("eviction took a live key while an expired victim was available")
		}
		if cl.TenantUsage(1) != liveBlockSize(cl) {
			t.Fatalf("usage %d != live bytes %d after expired reclaim",
				cl.TenantUsage(1), liveBlockSize(cl))
		}
	})
	env.Run()
}

// TestTenantAccountingTracksLiveBytes checks the accounting identity the
// quota policies stand on: at every quiescent point, the per-tenant
// usage cells sum exactly to the node's live heap bytes — insert,
// larger/smaller overwrite, delete, and eviction all transfer block
// ownership through accountTenant.
func TestTenantAccountingTracksLiveBytes(t *testing.T) {
	env := sim.NewEnv(3)
	cl := newTestCluster(env, 1000)
	cl.SetTenantQuota(1, 1<<40)
	cl.SetTenantQuota(2, 1<<40)
	env.Go("tenants", func(p *sim.Proc) {
		a := cl.NewClient(p)
		a.BindTenant(1)
		b := cl.NewClient(p)
		b.BindTenant(2)
		total := func() int64 { return cl.TenantUsage(0) + cl.TenantUsage(1) + cl.TenantUsage(2) }
		check := func(phase string) {
			if total() != liveBlockSize(cl) {
				t.Fatalf("%s: tenant usage %d != live bytes %d", phase, total(), liveBlockSize(cl))
			}
		}
		for i := 0; i < 40; i++ {
			a.Set(key(i), value(i))
		}
		for i := 0; i < 20; i++ {
			b.Set(key(100+i), value(i))
		}
		check("insert")
		for i := 0; i < 10; i++ { // same-tenant overwrite, larger class
			a.Set(key(i), bytes.Repeat([]byte{byte(i)}, 200))
		}
		check("grow-overwrite")
		for i := 0; i < 10; i++ { // cross-tenant overwrite transfers ownership
			b.Set(key(10+i), value(i))
		}
		if got := cl.TenantUsage(2); got <= 0 {
			t.Fatalf("tenant 2 usage %d after taking over 10 keys", got)
		}
		check("cross-overwrite")
		for i := 0; i < 5; i++ {
			a.Delete(key(i))
		}
		check("delete")
		for i := 0; i < 8; i++ {
			if !a.evictOne() {
				t.Fatal("evictOne found nothing")
			}
		}
		check("evict")
	})
	env.Run()
}

// TestOverloadShedsOnlyOverQuotaTenants: with the write-stall overload
// signal armed and firing, TryMSet rejects batches from the over-quota
// tenant with a typed *ShedError (wrapping both ErrShed and
// ErrOverQuota) without issuing a verb, keeps serving the in-quota
// tenant, and resumes the shed tenant once the stall window drains.
func TestOverloadShedsOnlyOverQuotaTenants(t *testing.T) {
	env := sim.NewEnv(5)
	cl := newTestCluster(env, 1000)
	cl.EnableOverloadControl(4, sim.Millisecond)
	cl.SetTenantQuota(1, 1<<40) // arm accounting before the writes
	cl.SetTenantQuota(2, 1<<40)
	env.Go("tenants", func(p *sim.Proc) {
		noisy := cl.NewClient(p)
		noisy.BindTenant(1)
		quiet := cl.NewClient(p)
		quiet.BindTenant(2)
		for i := 0; i < 20; i++ {
			noisy.Set(key(i), value(i))
		}
		quiet.Set(key(100), value(0))
		cl.SetTenantQuota(1, cl.TenantUsage(1)/2) // noisy is over
		cl.SetTenantQuota(2, 1<<40)               // quiet is not
		batch := []KV{{Key: []byte("bk"), Value: []byte("bv")}}

		// Not overloaded yet: over-quota alone does not shed.
		if err := noisy.TryMSet(batch); err != nil {
			t.Fatalf("shed without overload: %v", err)
		}
		// Synthesize a stall burst past the threshold (the write path
		// feeds the same NoteStallTick from its reclaimer stall loop).
		for i := 0; i < 10; i++ {
			cl.MN.NoteStallTick(p.Now())
		}
		if !cl.Overloaded(p.Now()) {
			t.Fatal("overload signal not raised")
		}
		err := noisy.TryMSet(batch)
		if err == nil {
			t.Fatal("over-quota tenant not shed under overload")
		}
		if !errors.Is(err, ErrShed) || !errors.Is(err, ErrOverQuota) {
			t.Fatalf("shed error not typed: %v", err)
		}
		var shed *ShedError
		if !errors.As(err, &shed) || shed.Tenant != 1 || shed.Usage <= shed.Quota {
			t.Fatalf("shed detail wrong: %+v", shed)
		}
		if noisy.Stats.ShedOps != 1 {
			t.Fatalf("ShedOps = %d, want 1", noisy.Stats.ShedOps)
		}
		if err := quiet.TryMSet(batch); err != nil {
			t.Fatalf("in-quota tenant shed: %v", err)
		}
		// The sliding window drains: two epochs later the tenant serves
		// again.
		p.Sleep(3 * sim.Millisecond)
		if err := noisy.TryMSet(batch); err != nil {
			t.Fatalf("still shed after the stall window drained: %v", err)
		}
	})
	env.Run()
}

// TestMultiClusterTenancyPropagates checks the pool-level wiring: a
// pool-wide quota splits across nodes, BindTenant reaches every per-node
// client (including lazily opened ones), aggregate usage sums the
// shards, and a node added later inherits quotas and overload arming.
func TestMultiClusterTenancyPropagates(t *testing.T) {
	env := sim.NewEnv(9)
	mc := NewMultiCluster(env, 2, DefaultOptions(2000, 2000*320))
	mc.SetTenantQuota(1, 64*1024)
	mc.EnableOverloadControl(8, sim.Millisecond)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		m.BindTenant(1)
		for i := 0; i < 200; i++ {
			m.Set(key(i), value(i))
		}
		var nodeSum int64
		for i := 0; i < mc.NumNodes(); i++ {
			nodeSum += mc.Node(i).TenantUsage(1)
		}
		if nodeSum == 0 || nodeSum != mc.TenantUsage(1) {
			t.Fatalf("aggregate usage %d != node sum %d", mc.TenantUsage(1), nodeSum)
		}
		id := mc.AddNode()
		mc.WaitReshard(p)
		late := mc.nodes[id]
		if !late.TenantMode() || late.TenantQuota(1) != 32*1024 {
			t.Fatalf("late node quota: mode=%v quota=%d", late.TenantMode(), late.TenantQuota(1))
		}
		// Everything the reshard moved to the new node is still charged
		// to tenant 1, node by node.
		var after int64
		for i := 0; i < mc.NumNodes(); i++ {
			after += mc.Node(i).TenantUsage(1)
		}
		if after != mc.TenantUsage(1) {
			t.Fatalf("post-reshard aggregate %d != node sum %d", mc.TenantUsage(1), after)
		}
		for i := 0; i < 200; i++ {
			if _, ok := m.Get(key(i)); !ok {
				t.Fatalf("key %d lost across reshard", i)
			}
		}
	})
	env.Run()
}

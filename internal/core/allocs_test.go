//go:build !race

package core

import (
	"testing"

	"ditto/internal/sim"
)

// TestAllocsPerOpSteadyState enforces the zero-allocation hot-path
// contract: once the per-client plan pools, scratch buffers, and the
// sim's event heap are warm, a steady-state Get (via GetAppend with a
// reused destination) and an overwriting Set must allocate NOTHING.
// MGet keeps a small ceiling — its output (the vals/oks slices and
// one fresh copy per returned value) allocates by design — but the
// ceiling is tight enough that a single per-key regression (a closure
// capture, a rebuilt plan, an un-pooled buffer) trips it. MSet, which
// owns no outputs, is held to zero like the serial paths. The counts are meaningless under the race detector, so
// the -race build gets a skipping twin (allocs_race_test.go).
func TestAllocsPerOpSteadyState(t *testing.T) {
	env := sim.NewEnv(11)
	cl := NewCluster(env, DefaultOptions(1000, 1000*320))
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)

		const batch = 32
		keys := make([][]byte, batch)
		pairs := make([]KV, batch)
		for i := 0; i < batch; i++ {
			keys[i] = key(i)
			pairs[i] = KV{Key: key(i), Value: value(i)}
		}
		dst := make([]byte, 0, 512)

		// Warm every pool the measured loops touch: plan free lists,
		// runner scratch, endpoint batches, the sim event heap, and the
		// hash-table buckets for every key the loops revisit.
		for r := 0; r < 3; r++ {
			c.MSet(pairs)
			c.MGet(keys)
			c.Set(keys[0], pairs[0].Value)
			dst, _ = c.GetAppend(dst[:0], keys[0])
		}

		gets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], keys[0])
		})
		sets := testing.AllocsPerRun(200, func() {
			c.Set(keys[0], pairs[0].Value)
		})
		mgets := testing.AllocsPerRun(50, func() {
			c.MGet(keys)
		})
		msets := testing.AllocsPerRun(50, func() {
			c.MSet(pairs)
		})
		t.Logf("allocs/op: get=%.1f set=%.1f mget(%d)=%.1f mset(%d)=%.1f",
			gets, sets, batch, mgets, batch, msets)
		if gets != 0 {
			t.Errorf("steady-state Get allocates %.1f objects/op, want 0", gets)
		}
		if sets != 0 {
			t.Errorf("steady-state Set allocates %.1f objects/op, want 0", sets)
		}
		if mgets > batch+4 {
			t.Errorf("MGet(%d) allocates %.1f objects/op, ceiling %d", batch, mgets, batch+4)
		}
		if msets != 0 {
			t.Errorf("steady-state MSet(%d) allocates %.1f objects/op, want 0", batch, msets)
		}

		// Tenant mode on: header stamping, the per-tenant accounting
		// cell, and TryMSet's shed check must add nothing to the same
		// steady-state paths.
		cl.SetTenantQuota(1, 1<<40)
		c.BindTenant(1)
		var err error
		for r := 0; r < 3; r++ {
			c.Set(keys[0], pairs[0].Value)
			dst, _ = c.GetAppend(dst[:0], keys[0])
			if err = c.TryMSet(pairs); err != nil {
				t.Fatalf("TryMSet under open quota: %v", err)
			}
		}
		tgets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], keys[0])
		})
		tsets := testing.AllocsPerRun(200, func() {
			c.Set(keys[0], pairs[0].Value)
		})
		tmsets := testing.AllocsPerRun(50, func() {
			err = c.TryMSet(pairs)
		})
		t.Logf("tenant-mode allocs/op: get=%.1f set=%.1f trymset(%d)=%.1f",
			tgets, tsets, batch, tmsets)
		if tgets != 0 {
			t.Errorf("tenant-mode Get allocates %.1f objects/op, want 0", tgets)
		}
		if tsets != 0 {
			t.Errorf("tenant-mode Set allocates %.1f objects/op, want 0", tsets)
		}
		if tmsets != 0 {
			t.Errorf("tenant-mode TryMSet(%d) allocates %.1f objects/op, want 0", batch, tmsets)
		}
	})
	env.Run()
}

// TestAllocsPerOpSteadyStateSpecGet holds the one-RTT speculative path
// to the same contract: once the hint is recorded and the spec-plan pool
// is warm, a hinted Get via GetAppend — Lookup, the speculative READ,
// in-place validation, metadata maintenance, and the hint refresh — must
// allocate NOTHING. The -race build gets a skipping twin
// (allocs_race_test.go).
func TestAllocsPerOpSteadyStateSpecGet(t *testing.T) {
	env := sim.NewEnv(12)
	opts := DefaultOptions(1000, 1000*320)
	opts.LocCacheSlots = 256
	cl := NewCluster(env, opts)
	env.Go("meter", func(p *sim.Proc) {
		c := cl.NewClient(p)
		k := key(0)
		c.Set(k, value(0))
		dst := make([]byte, 0, 512)
		for r := 0; r < 3; r++ { // warm the spec-plan pool and the hint
			dst, _ = c.GetAppend(dst[:0], k)
		}
		before := c.Stats.SpecGetHits
		gets := testing.AllocsPerRun(200, func() {
			dst, _ = c.GetAppend(dst[:0], k)
		})
		t.Logf("allocs/op: hinted get=%.1f", gets)
		if gets != 0 {
			t.Errorf("steady-state hinted Get allocates %.1f objects/op, want 0", gets)
		}
		// Prove the meter measured the speculative path, not a silent
		// fallback to the two-RTT walk.
		if c.Stats.SpecGetHits <= before {
			t.Error("measured loop never took the speculative path")
		}
		if c.Stats.SpecGetFallbacks != 0 {
			t.Errorf("fallbacks = %d, want 0", c.Stats.SpecGetFallbacks)
		}
	})
	env.Run()
}

// TestAllocsPerOpSteadyStateReplicatedSet holds the write-through path
// of hot-key replication to the same contract: a steady-state Set to a
// promoted key (R=2) invalidates both replica copies, publishes on the
// primary, and re-materializes the copies — two replica fan-outs of
// pooled plans through the MultiClient's runner plus the primary store —
// and must allocate NOTHING. The -race build gets a skipping twin
// (allocs_race_test.go).
func TestAllocsPerOpSteadyStateReplicatedSet(t *testing.T) {
	env := sim.NewEnv(13)
	mc := NewMultiCluster(env, 3, hotOptions(3000))
	mc.EnableHotKeyReplication(2, 4, 64)
	env.Go("meter", func(p *sim.Proc) {
		m := mc.NewClient(p)
		k, v := key(0), value(0)
		m.Set(k, v)
		for i := 0; i < 16 && mc.hot.Lookup(k) == nil; i++ {
			m.Get(k)
		}
		e := mc.hot.Lookup(k)
		if e == nil || len(e.Replicas) != 2 {
			t.Fatal("hot key was not promoted onto two replicas")
		}
		// Credit the entry with reads so the measured write stream never
		// trips write-heavy demotion: every Set must take the
		// write-through path.
		e.Reads = 1 << 40
		for r := 0; r < 3; r++ {
			m.Set(k, v)
		}
		promos, demos := mc.Promotions, mc.Demotions
		sets := testing.AllocsPerRun(200, func() {
			m.Set(k, v)
		})
		t.Logf("allocs/op: replicated set=%.1f", sets)
		if mc.hot.Lookup(k) != e || mc.Promotions != promos || mc.Demotions != demos {
			t.Fatal("the measured Sets did not all write through the same entry")
		}
		if sets != 0 {
			t.Errorf("steady-state replicated Set allocates %.1f objects/op, want 0", sets)
		}
	})
	env.Run()
}

// TestAllocsPerOpSteadyStateHotCandidateGet holds the hit hook of hot-key
// replication to the same contract for the candidate a full directory
// turns away: a hit on a key past the promotion threshold that loses
// admission — sketch update, directory lookup, admission check against
// the cached victim — must allocate NOTHING and queue no promotion. The
// measured op reads the one promoted key twice per candidate read, so
// the sketch keeps ranking the incumbent above the candidate. Gets go
// through the per-node clients' GetAppend, as in the single-node gate
// (the routed Get returns a fresh value copy by design). The -race
// build gets a skipping twin (allocs_race_test.go).
func TestAllocsPerOpSteadyStateHotCandidateGet(t *testing.T) {
	env := sim.NewEnv(14)
	mc := NewMultiCluster(env, 3, hotOptions(3000))
	mc.EnableHotKeyReplication(2, 4, 1)
	env.Go("meter", func(p *sim.Proc) {
		m := mc.NewClient(p)
		hot, cand := key(0), key(1)
		m.Set(hot, value(0))
		m.Set(cand, value(1))
		for i := 0; i < 16 && mc.hot.Lookup(hot) == nil; i++ {
			m.Get(hot)
		}
		if mc.hot.Lookup(hot) == nil {
			t.Fatal("hot key was not promoted")
		}
		hotOwner, _ := m.owner(hot)
		candOwner, _ := m.owner(cand)
		ch, cc := m.clientFor(hotOwner), m.clientFor(candOwner)
		dst := make([]byte, 0, 512)
		op := func() {
			dst, _ = ch.GetAppend(dst[:0], hot)
			dst, _ = ch.GetAppend(dst[:0], hot)
			dst, _ = cc.GetAppend(dst[:0], cand)
		}
		for r := 0; r < 8; r++ { // past the threshold; warm the plan pools
			op()
		}
		promos, rejects := mc.Promotions, mc.AdmissionRejects
		allocs := testing.AllocsPerRun(200, op)
		t.Logf("allocs/op: 2 promoted-key gets + 1 rejected-candidate get = %.1f", allocs)
		if mc.AdmissionRejects-rejects < 200 || mc.Promotions != promos || len(m.promo) != 0 {
			t.Fatalf("measured candidate Gets were not all admission-rejected: rejects +%d, promotions +%d, queued %d",
				mc.AdmissionRejects-rejects, mc.Promotions-promos, len(m.promo))
		}
		if allocs != 0 {
			t.Errorf("steady-state rejected-candidate Get allocates %.1f objects/op, want 0", allocs)
		}
	})
	env.Run()
}

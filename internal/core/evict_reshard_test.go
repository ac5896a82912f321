package core

// Eviction racing the other maintenance planes: a live reshard (a victim
// concurrently migrated must not double-free a block or resurrect a
// key) and hot-key replication (evicting a promoted key's primary copy
// must demote the entry and dissolve its replicas, not let them serve a
// key the cache dropped). Model tests in the style of replica_test.go.

import (
	"bytes"
	"math/rand"
	"testing"

	"ditto/internal/exec"
	"ditto/internal/sim"
)

// churnValue is a bench-sized (320-byte-class) value that varies by key
// and round, so staleness is detectable.
func churnValue(k, round int) []byte {
	return bytes.Repeat([]byte{byte(k*7 + round + 1)}, 240)
}

// TestEvictionRacingLiveReshard churns writes and deletes at ~100%
// occupancy — with background reclaimers running on every node — across
// a live AddNode reshard, under both reclaim strategies. The invariants:
// no block is double-freed (the memnode allocator panics on that), no
// deleted key is durably resurrected by a migration of its dying copy,
// and every surviving key reads back its exact last-written value once
// the reshard completes. Eviction-vs-migration races on the same slot
// are the point: the victim CAS and the migration's source CAS target
// the same atomic, so exactly one side frees the block, and a migrated
// insert whose source was evicted mid-copy must be taken back.
func TestEvictionRacingLiveReshard(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Serial, exec.Doorbell} {
		t.Run(strat.String(), func(t *testing.T) {
			env := sim.NewEnv(31)
			mc := NewMultiCluster(env, 2, DefaultOptions(3000, 3000*320))
			t.Cleanup(SetMaintenanceStrategy(strat))
			mc.EnableBackgroundReclaim(0, 0)
			model := make(map[string][]byte)
			deleted := make(map[string]bool)
			sawReshard := false
			env.Go("mutator", func(p *sim.Proc) {
				m := mc.NewClient(p)
				rng := rand.New(rand.NewSource(77))
				for i := 0; i < 3000; i++ {
					m.Set(key(i), churnValue(i, 0))
					model[string(key(i))] = churnValue(i, 0)
				}
				for round := 1; round <= 50; round++ {
					if round == 4 {
						mc.AddNode()
					}
					if mc.Resharding() {
						sawReshard = true
					}
					for j := 0; j < 40; j++ {
						k := rng.Intn(4000)
						v := churnValue(k, round)
						m.Set(key(k), v)
						model[string(key(k))] = v
						delete(deleted, string(key(k)))
					}
					for j := 0; j < 4; j++ {
						k := rng.Intn(4000)
						m.Delete(key(k))
						delete(model, string(key(k)))
						deleted[string(key(k))] = true
					}
				}
				mc.WaitReshard(p)
				// Post-reshard sweep: hits must be exact, deleted keys dead.
				hits := 0
				for i := 0; i < 4000; i++ {
					v, ok := m.Get(key(i))
					if !ok {
						continue // evicted (or never written): a legal miss
					}
					hits++
					if deleted[string(key(i))] {
						t.Errorf("deleted key %d resurrected across the reshard", i)
					} else if want := model[string(key(i))]; !bytes.Equal(v, want) {
						t.Errorf("key %d stale after eviction/reshard churn", i)
					}
				}
				if hits == 0 {
					t.Error("no key survived the churn at all")
				}
				s := m.Stats()
				if s.Gets != s.Hits+s.Misses {
					t.Errorf("accounting broken: %+v", s)
				}
			})
			env.Run()
			if !sawReshard {
				t.Error("churn never overlapped the reshard window")
			}
			if mc.Reshards != 1 || mc.NumNodes() != 3 {
				t.Errorf("reshards=%d nodes=%d", mc.Reshards, mc.NumNodes())
			}
		})
	}
}

// TestEvictedHotKeyDemotes pins the eviction/replication interaction:
// when memory pressure evicts a promoted key's PRIMARY copy, the hotset
// entry is flagged by the eviction hook, the next directory touch
// demotes it, and the replica copies are dissolved — a spread read must
// never resurrect a key the cache decided to drop.
func TestEvictedHotKeyDemotes(t *testing.T) {
	env := sim.NewEnv(11)
	mc := NewMultiCluster(env, 3, DefaultOptions(3000, 3000*320))
	mc.EnableHotKeyReplication(2, 8, 64)
	env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		K := []byte("hot-key-0")
		m.Set(K, churnValue(1, 0))
		for i := 0; i < 12; i++ {
			if _, ok := m.Get(K); !ok {
				t.Fatal("hot key unreadable while warming it up")
			}
		}
		m.Get(K) // operation boundary: drain the queued promotion
		e := mc.hot.Lookup(K)
		if e == nil {
			t.Fatal("key not promoted despite crossing the threshold")
		}

		// Force eviction on the primary: K's copy there is the only live
		// object on that node, so one sample-based eviction reclaims it.
		pc := m.clientFor(e.Primary)
		for i := 0; i < 50; i++ {
			if !pc.evictOne() {
				break
			}
		}
		pl := pc.acquireGetPlan(K)
		pc.runner.Serial.Run(pl)
		if pl.hit {
			t.Fatal("primary copy survived forced eviction")
		}
		if !e.Evicted {
			t.Fatal("eviction hook did not flag the promoted entry")
		}

		// The next read must demote instead of serving from a replica.
		demBefore := mc.Demotions
		if _, ok := m.Get(K); ok {
			t.Fatal("evicted hot key still readable — a replica resurrected it")
		}
		if mc.hot.Lookup(K) != nil {
			t.Fatal("entry not demoted after primary eviction")
		}
		if mc.Demotions != demBefore+1 {
			t.Errorf("demotions = %d, want %d", mc.Demotions, demBefore+1)
		}
		for _, id := range e.Replicas {
			rpl := m.clientFor(id).acquireGetPlan(K)
			m.runner.Serial.Run(rpl)
			if rpl.hit {
				t.Errorf("replica copy on node %d survived the demotion", id)
			}
		}

		// The key keeps working (and can re-promote) afterwards.
		m.Set(K, churnValue(2, 1))
		if v, ok := m.Get(K); !ok || !bytes.Equal(v, churnValue(2, 1)) {
			t.Fatal("key broken after eviction-driven demotion")
		}
	})
	env.Run()
}

package hotset

import (
	"fmt"
	"math/rand"
	"testing"

	"ditto/internal/sim"
)

func TestReadTargetRotates(t *testing.T) {
	e := &Entry{Primary: 7, Replicas: []int{1, 3}}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, e.ReadTarget(int64(i)))
	}
	want := []int{7, 1, 3, 7, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	if e.Reads != 6 || e.lastRead != 5 {
		t.Fatalf("reads=%d lastRead=%d", e.Reads, e.lastRead)
	}
}

func TestInsertLookupRemove(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 4, 1)
	e := &Entry{Key: []byte("k"), Primary: 0, Replicas: []int{1}}
	if !s.Insert(nil, e) {
		t.Fatal("insert failed")
	}
	if !e.busy {
		t.Fatal("entry not born locked")
	}
	if s.Insert(nil, &Entry{Key: []byte("k")}) {
		t.Fatal("duplicate insert succeeded")
	}
	if s.Lookup([]byte("k")) != e || s.Lookup([]byte("x")) != nil {
		t.Fatal("lookup wrong")
	}
	s.Unlock(e)
	env.Go("p", func(p *sim.Proc) {
		got := s.Lock(p, []byte("k"))
		if got != e {
			t.Fatal("lock did not return the entry")
		}
		s.Remove(got)
		if s.Len() != 0 || s.Lookup([]byte("k")) != nil {
			t.Fatal("remove did not delete")
		}
		if s.Lock(p, []byte("k")) != nil {
			t.Fatal("lock on absent key returned an entry")
		}
	})
	env.Run()
}

// TestLockSerializesMaintainers runs two processes contending for one
// entry's lock: the second must wait until the first releases, and a
// waiter whose entry is removed while blocked must get nil.
func TestLockSerializesMaintainers(t *testing.T) {
	env := sim.NewEnv(2)
	s := New(env, 4, 1)
	e := &Entry{Key: []byte("k")}
	s.Insert(nil, e) // born locked by "promoter" below
	var order []string

	env.Go("promoter", func(p *sim.Proc) {
		p.Sleep(10)
		order = append(order, "promote-done")
		s.Unlock(e)
	})
	env.Go("writer", func(p *sim.Proc) {
		got := s.Lock(p, []byte("k"))
		order = append(order, "writer-locked")
		if got != e {
			t.Fatal("writer locked wrong entry")
		}
		p.Sleep(10)
		s.Remove(got)
	})
	env.Go("late", func(p *sim.Proc) {
		p.Sleep(5)
		if got := s.Lock(p, []byte("k")); got != nil {
			t.Fatalf("late locker got %v after removal", got)
		}
		order = append(order, "late-nil")
	})
	env.Run()
	if len(order) != 3 || order[0] != "promote-done" || order[1] != "writer-locked" || order[2] != "late-nil" {
		t.Fatalf("order = %v", order)
	}
}

func TestVictimPicksColdestUnlocked(t *testing.T) {
	env := sim.NewEnv(3)
	s := New(env, 8, 1)
	mk := func(k string, last int64) *Entry {
		e := &Entry{Key: []byte(k)}
		s.Insert(nil, e)
		s.Unlock(e)
		e.ReadTarget(last)
		return e
	}
	cold := mk("cold", 1)
	mk("warm", 50)
	hot := mk("hot", 100)
	if v := s.Victim(); v != cold {
		t.Fatalf("victim = %s, want cold", v.Key)
	}
	// A busy entry is never the victim, even if coldest.
	cold.busy = true
	if v := s.Victim(); v == cold {
		t.Fatal("victim picked a busy entry")
	}
	if len(s.Keys()) != 3 {
		t.Fatalf("keys = %d", len(s.Keys()))
	}
	_ = hot
}

// TestLockStealFromKilledOwner: a lock whose holder is Killed is stolen
// by the next locker after CrashWake, and the entry comes back Warming
// (the dead holder may have left the copy set half-mutated).
func TestLockStealFromKilledOwner(t *testing.T) {
	env := sim.NewEnv(4)
	s := New(env, 4, 1)
	e := &Entry{Key: []byte("k")}
	s.Insert(nil, e)
	s.Unlock(e)
	stole := false
	var holder *sim.Proc
	holder = env.Go("holder", func(p *sim.Proc) {
		got := s.Lock(p, []byte("k"))
		if got.Owner() != p {
			t.Error("Owner() not recorded by Lock")
		}
		p.Sleep(1000) // dies holding the lock
	})
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(5) // let holder take the lock first
		got := s.Lock(p, []byte("k"))
		if got != e {
			t.Error("waiter did not steal the entry")
		}
		if !got.Warming {
			t.Error("stolen entry not marked Warming")
		}
		if got.Owner() != p {
			t.Error("steal did not transfer ownership")
		}
		stole = true
		s.Unlock(got)
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(10)
		env.Kill(holder)
		s.CrashWake()
	})
	env.Run()
	if !stole {
		t.Fatal("waiter never stole the killed holder's lock")
	}
}

func TestMarkPrimaryEvicted(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 8, 1)
	e := &Entry{Key: []byte("k"), KeyHash: 42, Primary: 3, Replicas: []int{1, 2}}
	s.Insert(nil, e)
	s.Unlock(e)

	// A replica node evicting the copy (or any other hash) must not flag.
	s.MarkPrimaryEvicted(1, 42)
	s.MarkPrimaryEvicted(3, 7)
	if e.Evicted {
		t.Fatal("flagged by a non-primary eviction or a foreign hash")
	}
	// The primary's eviction of the matching hash flags the entry, with
	// no lock taken (busy stays false).
	s.MarkPrimaryEvicted(3, 42)
	if !e.Evicted {
		t.Fatal("primary eviction did not flag the entry")
	}
	if e.busy {
		t.Fatal("marking must not take the entry lock")
	}
}

// TestWriteRegistryHashCollision registers writes of two distinct keys
// whose hashes collide: they share one count, so the registry reports
// the first key's write in flight until BOTH have ended — an
// over-count, which only keeps an entry Warming longer (readers use the
// primary). It never reports zero while either write is in flight.
func TestWriteRegistryHashCollision(t *testing.T) {
	s := New(sim.NewEnv(1), 4, 1)
	const kh = 0xfeed // the shared hash of keys "a" and "b" in this test
	s.BeginWrite(kh)  // a write of "a"
	s.BeginWrite(kh)  // a write of "b"
	if n := s.InflightWrites(kh); n != 2 {
		t.Fatalf("two colliding writes in flight: InflightWrites = %d, want 2", n)
	}
	s.EndWrite(kh) // "b" completes; "a" is still in flight
	if n := s.InflightWrites(kh); n != 1 {
		t.Fatalf("one write left in flight: InflightWrites = %d, want 1", n)
	}
	s.EndWrite(kh)
	if n := s.InflightWrites(kh); n != 0 || len(s.inflight) != 0 {
		t.Fatalf("all writes ended: InflightWrites = %d, registry size %d", n, len(s.inflight))
	}
}

// TestVictimCacheMatchesScan drives random reads, locks, unlocks,
// inserts and removals (with monotonic virtual time, as the simulator
// guarantees) and checks after each step that the cached Victim equals
// a fresh scan for the strict minimum.
func TestVictimCacheMatchesScan(t *testing.T) {
	s := New(sim.NewEnv(1), 32, 1)
	rng := rand.New(rand.NewSource(3))
	scan := func() *Entry {
		var v *Entry
		for _, k := range s.Keys() {
			e := s.entries[string(k)]
			if !e.busy && (v == nil || olderThan(e, v.lastRead, v.seq)) {
				v = e
			}
		}
		return v
	}
	var now int64
	for step := 0; step < 20000; step++ {
		now += int64(rng.Intn(3)) // ties on lastRead happen often
		keys := s.Keys()
		var e *Entry
		if len(keys) > 0 {
			e = s.entries[string(keys[rng.Intn(len(keys))])]
		}
		switch op := rng.Intn(10); {
		case e == nil || op == 0 && s.Len() < s.Limit():
			n := &Entry{Key: []byte(fmt.Sprintf("k%d", step))}
			n.Touch(now)
			s.Insert(nil, n)
		case op <= 5:
			if !e.busy {
				e.ReadTarget(now)
			} else {
				e.NoteRead(now)
			}
		case op <= 7:
			if e.busy {
				s.Unlock(e)
			} else {
				e.busy = true // Lock's effect, without a sim process
			}
		default:
			if e.busy {
				s.Remove(e)
			}
		}
		if got, want := s.Victim(), scan(); got != want {
			t.Fatalf("step %d: Victim = %v, scan = %v", step, got, want)
		}
	}
}

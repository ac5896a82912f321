package hotset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ditto/internal/sim"
)

// gateNodes is the pool the gate tests model: four nodes, each key
// replicated onto the other three (R=3), as on the read-hot workload.
const gateNodes = 4

// gateSet returns a directory whose sketch never halves during a test,
// so the ledger holds exactly the hits the test charged.
func gateSet() *Set { return New(sim.NewEnv(1), 64, 1<<20) }

// othersOf returns every node but primary, in id order.
func othersOf(primary int) []int {
	var out []int
	for n := 0; n < gateNodes; n++ {
		if n != primary {
			out = append(out, n)
		}
	}
	return out
}

// hits charges n hits of kh to node.
func hits(s *Set, kh uint64, node, n int) {
	for i := 0; i < n; i++ {
		s.Hit(kh, node)
	}
}

// maxLoad returns the busiest node's ledger load.
func maxLoad(s *Set) float64 { return slices.Max(s.ledger.load) }

// TestGateUniformDemandAdmitsNothing: when the ring already spreads the
// demand evenly, spreading any key only moves load onto nodes that are
// as busy as its primary, so the gate admits none — hot or cold.
func TestGateUniformDemandAdmitsNothing(t *testing.T) {
	s := gateSet()
	for k := 0; k < 40; k++ {
		hits(s, uint64(1000+k), k%gateNodes, 10+k)
	}
	// Even the load: every node serves the same total.
	for n := 0; n < gateNodes; n++ {
		s.ledger.charge(n, maxLoad(s)-s.ledger.at(n))
	}
	for k := 0; k < 40; k++ {
		if s.Spreads(uint64(1000+k), k%gateNodes, othersOf(k%gateNodes)) {
			t.Fatalf("key %d (est %d) admitted under uniform load %v", k, s.freq.estimate(uint64(1000+k)), s.ledger.load)
		}
	}
}

// TestGateAdmitsUntilMaxStopsFalling: one node owns a hot tail while the
// others serve an even background. Offered its keys hottest first, the
// gate admits exactly those whose promotion lowers the busiest node's
// projected load — each admission is checked against the ledger after
// Insert reprices it, and each refusal by promoting the key anyway and
// watching the maximum not fall.
func TestGateAdmitsUntilMaxStopsFalling(t *testing.T) {
	s := gateSet()
	hot := []int{400, 200, 120, 80, 40, 20, 10, 5}
	for i, n := range hot {
		hits(s, uint64(1+i), 0, n)
	}
	for n := 1; n < gateNodes; n++ {
		hits(s, uint64(100+n), n, 300)
	}
	admitted := 0
	for i := range hot {
		kh := uint64(1 + i)
		before := maxLoad(s)
		ok := s.Spreads(kh, 0, othersOf(0))
		e := &Entry{Key: []byte(fmt.Sprint(kh)), KeyHash: kh, Primary: 0, Replicas: othersOf(0)}
		s.Insert(nil, e)
		after := maxLoad(s)
		if ok != (after < before) {
			t.Fatalf("key %d (est %d): gate said %v, but promoting it moves the max %.1f -> %.1f",
				i, s.freq.estimate(kh), ok, before, after)
		}
		if ok {
			admitted++
			s.Unlock(e)
		} else {
			s.Remove(e)
		}
	}
	if admitted == 0 || admitted == len(hot) {
		t.Fatalf("admitted %d of %d keys, want some but not all: the hot node sheds its tail only until it is no longer the busiest", admitted, len(hot))
	}
	t.Logf("admitted %d of %d keys, loads %v", admitted, len(hot), s.ledger.load)
}

// TestGateWritesRaiseTheBar: a key that passes the gate on a read-only
// pool fails it once the pool's write fraction prices the write-through
// its replicas would pay.
func TestGateWritesRaiseTheBar(t *testing.T) {
	build := func(writes int) *Set {
		s := gateSet()
		hits(s, 1, 0, 300) // the candidate
		hits(s, 2, 0, 100)
		for n := 1; n < gateNodes; n++ {
			hits(s, uint64(100+n), n, 250)
		}
		for i := 0; i < writes; i++ {
			s.NoteWrite(2) // writes to a read key count toward the fraction
		}
		return s
	}
	if s := build(0); !s.Spreads(1, 0, othersOf(0)) {
		t.Fatalf("read-only pool: candidate refused, loads %v", s.ledger.load)
	}
	if s := build(300); s.Spreads(1, 0, othersOf(0)) {
		t.Fatalf("write-heavy pool (%.0f writes over %d hits): candidate still admitted", s.ledger.writes, s.freq.samples)
	}
	// Writes to keys nobody reads (a preload) do not count.
	s := build(0)
	for i := 0; i < 300; i++ {
		s.NoteWrite(uint64(1 << 40))
	}
	if s.ledger.writes != 0 {
		t.Fatalf("writes to unread keys counted: %.0f", s.ledger.writes)
	}
}

// TestGateDeterministic replays one random stream of hits, writes,
// gate decisions, promotions, write-throughs and window closes on two
// fresh directories and requires the same decisions and the same
// demotion marks, so admission replays exactly under a simulation seed.
func TestGateDeterministic(t *testing.T) {
	run := func() []string {
		env := sim.NewEnv(1)
		s := New(env, 16, 2) // W = 512 hits: several windows close
		rng := rand.New(rand.NewSource(5))
		z := rand.NewZipf(rng, 1.2, 1, 63) // a skewed stream, so some keys pass
		var log []string
		for step := 0; step < 5000; step++ {
			k := z.Uint64()
			kh := k*0x9e3779b97f4a7c15 + 1
			primary := int(k % gateNodes)
			switch op := rng.Intn(20); {
			case op == 0:
				s.NoteWrite(kh)
			case op == 1:
				if e := s.Lookup([]byte(fmt.Sprint(k))); e != nil && !e.busy {
					s.ChargeWriteThrough(e)
				}
			case op == 2 && s.Len() < s.Limit():
				key := []byte(fmt.Sprint(k))
				if s.Lookup(key) == nil && s.Spreads(kh, primary, othersOf(primary)) {
					e := &Entry{Key: key, KeyHash: kh, Primary: primary, Replicas: othersOf(primary)}
					s.Insert(nil, e)
					s.Unlock(e)
					log = append(log, fmt.Sprintf("%d:promote %d", step, k))
				}
			default:
				node := primary
				if e := s.Lookup([]byte(fmt.Sprint(k))); e != nil {
					node = e.ReadTarget(int64(step))
				}
				s.Hit(kh, node)
			}
		}
		for _, key := range s.Keys() {
			log = append(log, fmt.Sprintf("%s unfit=%v", key, s.Lookup(key).Unfit))
		}
		return append(log, fmt.Sprintf("loads %v", s.ledger.load))
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("decisions differ across runs:\n%v\n%v", a, b)
	}
	if len(a) < 3 {
		t.Fatalf("the stream promoted nothing: %v", a)
	}
}

//go:build !race

package hotset

import "testing"

// TestAllocsPerOpSteadyStateGate holds the replication gate to the hot
// path's zero-allocation contract: every hit a client observes is
// recorded (sketch, ledger, and the window close with its per-entry
// re-check every W hits), and every hit on a key past the promotion
// threshold asks the gate — neither may allocate. The -race build gets
// a skipping twin (allocs_race_test.go).
func TestAllocsPerOpSteadyStateGate(t *testing.T) {
	s := New(nil, 4, 2) // W = 128 hits: the measured loop closes windows
	replicas := othersOf(0)
	for i := 0; i < 4; i++ {
		e := &Entry{Key: []byte{byte(i)}, KeyHash: uint64(i + 1), Primary: i % gateNodes, Replicas: othersOf(i % gateNodes)}
		s.Insert(nil, e)
		s.Unlock(e)
	}
	var kh uint64
	op := func() {
		kh++
		s.Hit(kh%64, int(kh%gateNodes))
		s.NoteWrite(kh % 64)
		s.Spreads(kh%64, 0, replicas)
	}
	for i := 0; i < 1000; i++ { // size the ledger
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Errorf("Hit + NoteWrite + Spreads allocate %.1f objects/op, want 0", allocs)
	}
}

package hotset

import (
	"math"
	"math/rand"
	"testing"

	"ditto/internal/sim"
)

// TestSketchDeterministic: two sketches fed the same samples hold the
// same counters — the row seeds are constants, so admission decisions
// replay exactly under a fixed simulation seed.
func TestSketchDeterministic(t *testing.T) {
	a, b := newSketch(64, 1<<20), newSketch(64, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		kh := rng.Uint64()
		a.record(kh)
		b.record(kh)
	}
	if a.samples != b.samples {
		t.Fatalf("samples %d != %d", a.samples, b.samples)
	}
	for i := range a.rows {
		for j := range a.rows[i] {
			if a.rows[i][j] != b.rows[i][j] {
				t.Fatalf("row %d counter %d: %d != %d", i, j, a.rows[i][j], b.rows[i][j])
			}
		}
	}
}

// TestSketchSize pins the geometry: width nextPow2(8×limit) per row.
func TestSketchSize(t *testing.T) {
	for _, c := range []struct{ limit, width int }{{1, 8}, {16, 128}, {17, 256}, {512, 4096}} {
		if got := len(newSketch(c.limit, 100).rows[0]); got != c.width {
			t.Errorf("limit %d: width %d, want %d", c.limit, got, c.width)
		}
	}
}

// TestSketchHalvesAtWindow: the W-th sample halves every counter and
// the sample count; the sample before it does not.
func TestSketchHalvesAtWindow(t *testing.T) {
	const window = 100
	s := newSketch(16, window)
	const hot, cold = 11, 22
	for i := 0; i < 60; i++ {
		s.record(hot)
	}
	for i := 0; i < 39; i++ {
		s.record(cold)
	}
	if s.estimate(hot) != 60 || s.estimate(cold) != 39 || s.samples != window-1 {
		t.Fatalf("before W: hot=%d cold=%d samples=%d", s.estimate(hot), s.estimate(cold), s.samples)
	}
	s.record(cold) // the W-th sample
	if s.estimate(hot) != 30 || s.estimate(cold) != 20 || s.samples != window/2 {
		t.Fatalf("after W: hot=%d cold=%d samples=%d, want 30, 20, %d",
			s.estimate(hot), s.estimate(cold), s.samples, window/2)
	}
}

// TestSketchSaturates: counters stop at the uint16 maximum instead of
// wrapping to zero, so a very hot key never looks cold.
func TestSketchSaturates(t *testing.T) {
	s := newSketch(16, math.MaxUint64)
	for i := 0; i < math.MaxUint16+100; i++ {
		s.record(5)
	}
	if got := s.estimate(5); got != math.MaxUint16 {
		t.Fatalf("estimate = %d, want saturation at %d", got, math.MaxUint16)
	}
}

// TestAdmitRequiresStrictlyHotter: a full directory admits a candidate
// only when its estimate strictly exceeds the victim's — a tie keeps the
// incumbent — and always admits while it has room.
func TestAdmitRequiresStrictlyHotter(t *testing.T) {
	env := sim.NewEnv(1)
	s := New(env, 1, 1000)
	const incumbent, rival = 101, 202
	if v, ok := s.Admit(rival); !ok || v != nil {
		t.Fatalf("empty directory: Admit = (%v, %v), want (nil, true)", v, ok)
	}
	e := &Entry{Key: []byte("incumbent"), KeyHash: incumbent}
	s.Insert(nil, e)
	if v, ok := s.Admit(rival); ok || v != nil {
		t.Fatalf("every entry locked: Admit = (%v, %v), want (nil, false)", v, ok)
	}
	s.Unlock(e)
	for i := 0; i < 3; i++ {
		s.Record(incumbent)
		s.Record(rival)
	}
	if v, ok := s.Admit(rival); ok || v != e {
		t.Fatalf("tie: Admit = (%v, %v), want (incumbent, false)", v, ok)
	}
	s.Record(rival)
	if v, ok := s.Admit(rival); !ok || v != e {
		t.Fatalf("hotter candidate: Admit = (%v, %v), want (incumbent, true)", v, ok)
	}
}

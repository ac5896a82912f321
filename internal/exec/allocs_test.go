//go:build !race

package exec

import (
	"testing"

	"ditto/internal/sim"
)

// TestDoorbellReentrantRunAllocsNothing holds the nested-runner path to
// the pooled runner's contract: once both the outer and the nested
// runner's scratch is warm, a run whose Absorb starts another run on the
// same runner allocates nothing. (Alloc counts are inflated by the race
// detector, hence the !race build tag.)
func TestDoorbellReentrantRunAllocsNothing(t *testing.T) {
	env := sim.NewEnv(9)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		var r DoorbellRunner
		recs, outer := reentrantFixture(p, n, &r)
		plans := []Plan{outer}
		again := func() {
			outer.done = false
			for _, rp := range recs {
				rp.st = 0
			}
			r.Run(plans)
		}
		for i := 0; i < 3; i++ {
			again()
		}
		if allocs := testing.AllocsPerRun(100, again); allocs != 0 {
			t.Errorf("re-entrant doorbell run allocates %.1f objects/op, want 0", allocs)
		}
	})
	env.Run()
}

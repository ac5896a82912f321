//go:build !race

package sim

import "testing"

// TestAllocsPerOpSteadyStateSwitch: once the event heap is warm, a Sleep
// (push, switch to Run, pop, resume) allocates nothing. The counts are
// meaningless under the race detector, so the -race build gets a skipping
// twin (allocs_race_test.go).
func TestAllocsPerOpSteadyStateSwitch(t *testing.T) {
	env := NewEnv(1)
	done := false
	env.Go("partner", func(p *Proc) {
		for !done {
			p.Sleep(1)
		}
	})
	env.Go("meter", func(p *Proc) {
		for i := 0; i < 16; i++ {
			p.Sleep(1)
		}
		if a := testing.AllocsPerRun(1000, func() { p.Sleep(1) }); a != 0 {
			t.Errorf("steady-state Sleep allocates %.1f objects/op, want 0", a)
		}
		done = true
	})
	env.Run()
}

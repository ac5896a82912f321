package sim

import (
	"fmt"
	"testing"
)

// TestKillStopsProc: a killed process never runs again, and Run still
// terminates (its pending event is discarded, not executed).
func TestKillStopsProc(t *testing.T) {
	env := NewEnv(1)
	steps := 0
	var victim *Proc
	victim = env.Go("victim", func(p *Proc) {
		for {
			p.Sleep(10)
			steps++
		}
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(25)
		if !env.Kill(victim) {
			t.Error("Kill of a live proc returned false")
		}
		if env.Kill(victim) {
			t.Error("second Kill of the same proc returned true")
		}
	})
	env.Run()
	if steps != 2 {
		t.Fatalf("victim took %d steps, want 2 (killed at t=25, steps at 10 and 20)", steps)
	}
	if !victim.Killed() {
		t.Error("victim.Killed() = false after Kill")
	}
	if victim.Alive() {
		t.Error("victim.Alive() = true after Kill")
	}
}

// TestKillSelfPanics: a process cannot Kill itself (crash injection is
// always external, like a real fail-stop).
func TestKillSelfPanics(t *testing.T) {
	env := NewEnv(1)
	panicked := false
	env.Go("suicidal", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		env.Kill(p)
	})
	env.Run()
	if !panicked {
		t.Fatal("self-Kill did not panic")
	}
}

// TestOnCrashLIFOAndRespawn: OnCrash hooks run in LIFO order at the kill
// point, do not run on normal exit, and may respawn a replacement proc.
func TestOnCrashLIFOAndRespawn(t *testing.T) {
	env := NewEnv(1)
	var order []string
	respawned := false
	var victim *Proc
	victim = env.Go("worker", func(p *Proc) {
		p.OnCrash(func() { order = append(order, "first-registered") })
		p.OnCrash(func() {
			order = append(order, "second-registered")
			env.Go("worker", func(p2 *Proc) {
				respawned = true
			})
		})
		for {
			p.Sleep(5)
		}
	})
	env.Go("clean", func(p *Proc) {
		p.OnCrash(func() { t.Error("OnCrash hook ran on normal exit") })
		p.Sleep(3)
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(12)
		env.Kill(victim)
	})
	env.Run()
	if len(order) != 2 || order[0] != "second-registered" || order[1] != "first-registered" {
		t.Fatalf("OnCrash order = %v, want LIFO", order)
	}
	if !respawned {
		t.Fatal("respawn from OnCrash hook did not run")
	}
}

// TestFindProc returns the newest live proc with a name, skipping dead ones.
func TestFindProc(t *testing.T) {
	env := NewEnv(1)
	var first, second *Proc
	first = env.Go("dup", func(p *Proc) { p.Sleep(100) })
	env.Go("driver", func(p *Proc) {
		if got := env.FindProc("dup"); got != first {
			t.Errorf("FindProc before respawn = %v, want first", got)
		}
		if got := env.FindProc("nobody"); got != nil {
			t.Errorf("FindProc(nobody) = %v, want nil", got)
		}
		env.Kill(first)
		second = env.Go("dup", func(p *Proc) { p.Sleep(100) })
		if got := env.FindProc("dup"); got != second {
			t.Errorf("FindProc after respawn = %v, want second", got)
		}
	})
	env.Run()
}

// TestKillDiscardPendingCondWake: killing a proc parked on a Cond must not
// wedge Run or resurrect the proc when the Cond broadcasts.
func TestKillDiscardPendingCondWake(t *testing.T) {
	env := NewEnv(1)
	cond := NewCond(env)
	woke := false
	var waiter *Proc
	waiter = env.Go("waiter", func(p *Proc) {
		cond.Wait(p)
		woke = true
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(5)
		env.Kill(waiter)
		cond.Broadcast()
	})
	env.Run()
	if woke {
		t.Fatal("killed waiter ran after Cond.Broadcast")
	}
}

// TestFaultScheduleDeterministic: identical seeds give identical armed
// times; different seeds differ somewhere across a spread of windows.
func TestFaultScheduleDeterministic(t *testing.T) {
	arm := func(seed int64) []int64 {
		env := NewEnv(1)
		fs := NewFaultSchedule(env, seed)
		var ts []int64
		for i := 0; i < 8; i++ {
			ts = append(ts, fs.Between(1000, 1000000, fmt.Sprintf("f%d", i), func(p *Proc) {}))
		}
		return ts
	}
	a, b := arm(42), arm(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different times at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := arm(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 armed identical schedules")
	}
}

// TestFaultScheduleFiresAtTime: the fault function runs at the armed
// virtual time and its name shows up in Armed.
func TestFaultScheduleFiresAtTime(t *testing.T) {
	env := NewEnv(1)
	fs := NewFaultSchedule(env, 7)
	var firedAt int64 = -1
	fs.At(500, "boom", func(p *Proc) {
		firedAt = env.Now()
	})
	env.Go("bg", func(p *Proc) { p.Sleep(1000) })
	env.Run()
	if firedAt != 500 {
		t.Fatalf("fault fired at %d, want 500", firedAt)
	}
	if len(fs.Armed) != 1 || fs.Armed[0].Name != "boom" || fs.Armed[0].T != 500 {
		t.Fatalf("Armed = %+v", fs.Armed)
	}
	if fs.Seed() != 7 {
		t.Fatalf("Seed() = %d", fs.Seed())
	}
	if fs.String() == "" {
		t.Fatal("String() empty")
	}
}

// TestKillRunningCountProperty: after killing k of n sleepers, Run exits
// (the killed sleepers' pending wake-ups are skipped, not resumed).
func TestKillRunningCountProperty(t *testing.T) {
	env := NewEnv(1)
	var procs []*Proc
	for i := 0; i < 10; i++ {
		procs = append(procs, env.Go(fmt.Sprintf("s%d", i), func(p *Proc) {
			p.Sleep(1000)
		}))
	}
	env.Go("killer", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 5; i++ {
			env.Kill(procs[i*2])
		}
	})
	env.Run() // must terminate; a leak would hang the test
	if env.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", env.Now())
	}
}

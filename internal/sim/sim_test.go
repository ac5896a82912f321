package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"weak"
)

func TestSleepAdvancesTime(t *testing.T) {
	env := NewEnv(1)
	var at int64
	env.Go("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		at = p.Now()
	})
	env.Run()
	if at != 5*Microsecond {
		t.Fatalf("got %d, want %d", at, 5*Microsecond)
	}
}

func TestSleepNegativeIsYield(t *testing.T) {
	env := NewEnv(1)
	var at int64 = -1
	env.Go("p", func(p *Proc) {
		p.Sleep(-10)
		at = p.Now()
	})
	env.Run()
	if at != 0 {
		t.Fatalf("negative sleep moved time to %d", at)
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []int {
		env := NewEnv(42)
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			env.Go("p", func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(int64(1+i) * Microsecond)
					order = append(order, i)
				}
			})
		}
		env.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("wrong lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(Microsecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time ordering broken: %v", order)
		}
	}
}

func TestGoAtStartsLater(t *testing.T) {
	env := NewEnv(1)
	var started int64
	env.Go("early", func(p *Proc) { p.Sleep(10 * Microsecond) })
	env.GoAt(7*Microsecond, "late", func(p *Proc) { started = p.Now() })
	env.Run()
	if started != 7*Microsecond {
		t.Fatalf("late proc started at %d", started)
	}
}

func TestNestedGo(t *testing.T) {
	env := NewEnv(1)
	var childAt int64
	env.Go("parent", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		env.Go("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childAt = c.Now()
		})
		p.Sleep(10 * Microsecond)
	})
	env.Run()
	if childAt != 4*Microsecond {
		t.Fatalf("child ran at %d, want %d", childAt, 4*Microsecond)
	}
}

func TestStopHaltsRun(t *testing.T) {
	env := NewEnv(1)
	n := 0
	env.Go("p", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			n++
			if n == 5 {
				env.Stop()
			}
			if n > 5 {
				t.Error("ran past Stop")
				return
			}
		}
	})
	env.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

// TestRunAfterStopResumes: Stop keeps the pending events, so a second Run
// picks the timeline up where the first one stopped.
func TestRunAfterStopResumes(t *testing.T) {
	env := NewEnv(1)
	var steps []int64
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			steps = append(steps, p.Now())
		}
	})
	env.Go("stopper", func(p *Proc) {
		p.Sleep(25)
		env.Stop()
	})
	env.Run()
	if env.Now() != 25 || len(steps) != 2 {
		t.Fatalf("after Stop: now=%d steps=%v, want now=25 and 2 steps", env.Now(), steps)
	}
	env.Run()
	want := []int64{10, 20, 30, 40, 50}
	if env.Now() != 50 || len(steps) != len(want) {
		t.Fatalf("after second Run: now=%d steps=%v, want now=50 steps=%v", env.Now(), steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
}

// TestProcPanicPropagatesFromRun: a panic inside a process surfaces from
// Run in the caller's goroutine, with its original value.
func TestProcPanicPropagatesFromRun(t *testing.T) {
	env := NewEnv(1)
	env.Go("bomb", func(p *Proc) {
		p.Sleep(3)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v from Run, want boom", r)
		}
		if env.Now() != 3 {
			t.Fatalf("panic surfaced at t=%d, want 3", env.Now())
		}
	}()
	env.Run()
	t.Fatal("Run returned normally after a process panicked")
}

// TestProcGoexitEndsRunCaller: a runtime.Goexit inside a process (what
// t.Fatal does) ends the goroutine that called Run; no later event runs.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	returned := make(chan bool)
	laterRan := false
	go func() {
		ok := false
		defer func() { returned <- ok }()
		env := NewEnv(1)
		env.Go("quitter", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		env.Go("later", func(p *Proc) {
			p.Sleep(5)
			laterRan = true
		})
		env.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
	if laterRan {
		t.Fatal("a process ran after another one called runtime.Goexit")
	}
}

// spawnHolder starts a process whose body captures a fresh object and
// returns a weak pointer to that object.
func spawnHolder(env *Env) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	env.Go("holder", func(p *Proc) {
		p.Sleep(1)
		obj[0]++
	})
	return weak.Make(obj)
}

// TestFinishedProcIsCollectable: Env keeps every Proc for FindProc, so a
// finished process must not keep its body's captured state reachable.
func TestFinishedProcIsCollectable(t *testing.T) {
	env := NewEnv(1)
	wp := spawnHolder(env)
	env.Run()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a finished process's captured state survived GC")
	}
	// env is still live through the GC above, and so is every Proc it tracks.
	if len(env.procs) != 1 {
		t.Fatalf("env tracks %d procs, want 1", len(env.procs))
	}
}

func TestCondWaitBroadcast(t *testing.T) {
	env := NewEnv(1)
	cond := NewCond(env)
	var woke []int64
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			cond.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	env.Go("waker", func(p *Proc) {
		p.Sleep(9 * Microsecond)
		if cond.NumWaiters() != 3 {
			t.Errorf("waiters = %d, want 3", cond.NumWaiters())
		}
		cond.Broadcast()
	})
	env.Run()
	if len(woke) != 3 {
		t.Fatalf("only %d waiters woke", len(woke))
	}
	for _, w := range woke {
		if w != 9*Microsecond {
			t.Fatalf("waiter woke at %d", w)
		}
	}
}

func TestResourceSingleServerQueues(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		r := NewResource(env, 1)
		e1 := r.Acquire(100)
		e2 := r.Acquire(100)
		e3 := r.Acquire(100)
		if e1 != 100 || e2 != 200 || e3 != 300 {
			t.Errorf("got %d %d %d", e1, e2, e3)
		}
	})
	env.Run()
}

func TestResourceParallelServers(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		r := NewResource(env, 2)
		e1 := r.Acquire(100)
		e2 := r.Acquire(100)
		e3 := r.Acquire(100)
		if e1 != 100 || e2 != 100 || e3 != 200 {
			t.Errorf("got %d %d %d", e1, e2, e3)
		}
	})
	env.Run()
}

func TestResourceIdleGap(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		r := NewResource(env, 1)
		r.Acquire(100)
		p.Sleep(1000)
		// Server idled from 100 to 1000; next op starts now, not at 100.
		if e := r.Acquire(50); e != 1050 {
			t.Errorf("end = %d, want 1050", e)
		}
	})
	env.Run()
}

func TestResourceSetServers(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		r := NewResource(env, 4)
		for i := 0; i < 4; i++ {
			r.Acquire(int64(100 * (i + 1)))
		}
		r.SetServers(2)
		if r.Servers() != 2 {
			t.Fatalf("servers = %d", r.Servers())
		}
		// The two earliest-free servers (100 and 200) must have been kept.
		if e := r.Acquire(1); e != 101 {
			t.Errorf("end = %d, want 101", e)
		}
		// That server is now free at 101, earlier than the one free at 200.
		if e := r.Acquire(1); e != 102 {
			t.Errorf("end = %d, want 102", e)
		}
		if e := r.Acquire(200); e != 302 {
			t.Errorf("end = %d, want 302 (queued on the server free at 102)", e)
		}
		r.SetServers(8)
		if r.Servers() != 8 {
			t.Fatalf("servers after grow = %d", r.Servers())
		}
	})
	env.Run()
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		r := NewResource(env, 2)
		r.Acquire(500)
		r.Acquire(500)
		if u := r.Utilization(1000); u != 0.5 {
			t.Errorf("utilization = %v, want 0.5", u)
		}
	})
	env.Run()
}

func TestPerProcRNGDeterministic(t *testing.T) {
	draw := func() int64 {
		env := NewEnv(7)
		var v int64
		env.Go("p", func(p *Proc) { v = p.Rand().Int63() })
		env.Run()
		return v
	}
	if draw() != draw() {
		t.Fatal("per-proc RNG not deterministic")
	}
}

func TestRunContinuesTimeline(t *testing.T) {
	env := NewEnv(1)
	env.Go("a", func(p *Proc) { p.Sleep(100) })
	env.Run()
	if env.Now() != 100 {
		t.Fatalf("now = %d", env.Now())
	}
	env.Go("b", func(p *Proc) { p.Sleep(50) })
	env.Run()
	if env.Now() != 150 {
		t.Fatalf("now after second run = %d", env.Now())
	}
}

// Property: for any sequence of service times on a single-server resource,
// completions are monotonically increasing and total busy time equals the
// sum of service times.
func TestResourceAccountingProperty(t *testing.T) {
	f := func(svcs []uint16) bool {
		env := NewEnv(1)
		ok := true
		env.Go("p", func(p *Proc) {
			r := NewResource(env, 1)
			var last, sum int64
			for _, s := range svcs {
				svc := int64(s)
				end := r.Acquire(svc)
				if end < last {
					ok = false
				}
				last = end
				sum += svc
			}
			if r.Busy != sum {
				ok = false
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time never decreases across an arbitrary schedule of
// sleeping processes.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(delays []uint16, procs uint8) bool {
		np := int(procs%8) + 1
		env := NewEnv(99)
		mono := true
		for i := 0; i < np; i++ {
			i := i
			env.Go("p", func(p *Proc) {
				prev := int64(-1)
				for j := i; j < len(delays); j += np {
					p.Sleep(int64(delays[j]))
					if p.Now() < prev {
						mono = false
					}
					prev = p.Now()
				}
			})
		}
		env.Run()
		return mono
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSwitch measures one process switch: two processes ping-pong
// on Sleep(1), so every op is one resume by Run and one yield back.
func BenchmarkSwitch(b *testing.B) {
	env := NewEnv(1)
	for i := 0; i < 2; i++ {
		n := (b.N + 1 - i) / 2 // the two halves sum to b.N
		env.Go("pingpong", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// scheduleTrace records (now, proc id, step) triples in the order the
// kernel runs them and hashes them into one digest.
type scheduleTrace struct {
	env   *Env
	n     int
	lines []string
	buf   [24]byte
	h     hash.Hash64
}

func (tr *scheduleTrace) step(p *Proc, step int) {
	binary.LittleEndian.PutUint64(tr.buf[0:], uint64(tr.env.Now()))
	binary.LittleEndian.PutUint64(tr.buf[8:], uint64(p.ID()))
	binary.LittleEndian.PutUint64(tr.buf[16:], uint64(step))
	tr.h.Write(tr.buf[:])
	tr.n++
	tr.lines = append(tr.lines, fmt.Sprintf("t=%d id=%d %s step=%d", tr.env.Now(), p.ID(), p.Name(), step))
}

// runGoldenScenario drives one fixed scenario through every scheduling
// path of the kernel and returns its trace.
func runGoldenScenario() *scheduleTrace {
	env := NewEnv(5)
	tr := &scheduleTrace{env: env, h: fnv.New64a()}

	// Same-time events: three procs wake at identical times.
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("tick%d", i), func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Sleep(10)
				tr.step(p, k)
			}
		})
	}

	// GoAt plus nested Go, with a zero-length sleep (a pure yield).
	env.GoAt(15, "late", func(p *Proc) {
		tr.step(p, 0)
		env.Go("child", func(c *Proc) {
			tr.step(c, 0)
			c.Sleep(0)
			tr.step(c, 1)
			c.Sleep(5)
			tr.step(c, 2)
		})
		p.Sleep(0)
		tr.step(p, 1)
	})

	// Cond broadcast: two waiters released at t=30.
	cond := NewCond(env)
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			cond.Wait(p)
			tr.step(p, 0)
			p.Sleep(int64(1 + i))
			tr.step(p, 1)
		})
	}
	env.Go("waker", func(p *Proc) {
		p.SleepUntil(30)
		cond.Broadcast()
		tr.step(p, 0)
	})

	// Resource queueing: three procs contend for one server.
	res := NewResource(env, 1)
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("user%d", i), func(p *Proc) {
			p.SleepUntil(res.Acquire(12))
			tr.step(p, 0)
			p.SleepUntil(res.Acquire(3))
			tr.step(p, 1)
		})
	}

	// Kill whose OnCrash hook respawns a replacement.
	victim := env.Go("victim", func(p *Proc) {
		p.OnCrash(func() {
			env.Go("respawn", func(r *Proc) {
				for k := 0; k < 3; k++ {
					tr.step(r, k)
					r.Sleep(7)
				}
			})
		})
		for k := 0; ; k++ {
			p.Sleep(7)
			tr.step(p, k)
		}
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(40)
		env.Kill(victim)
		tr.step(p, 0)
	})

	// Stop at t=50, then a second Run resumes the timeline.
	env.Go("stopper", func(p *Proc) {
		p.Sleep(50)
		tr.step(p, 0)
		env.Stop()
		p.Sleep(1)
		tr.step(p, 1)
	})
	env.Run()
	env.Go("second", func(p *Proc) {
		tr.step(p, 0)
		p.Sleep(4)
		tr.step(p, 1)
	})
	env.Run()
	return tr
}

// TestScheduleOrderGolden pins the exact order in which the kernel runs
// processes across same-time events, GoAt and nested Go, Cond, Resource
// queueing, Kill with an OnCrash respawn, and Stop followed by another
// Run. Any change to the event order changes the digest; it was recorded
// before processes became coroutines and must move only with a change
// that is meant to reorder events.
func TestScheduleOrderGolden(t *testing.T) {
	const (
		wantSteps  = 41
		wantDigest = uint64(0x4ede32a1d6de4577)
	)
	tr := runGoldenScenario()
	if tr.n != wantSteps || tr.h.Sum64() != wantDigest {
		for _, l := range tr.lines {
			t.Log(l)
		}
		t.Fatalf("schedule trace: %d steps, digest %#016x; want %d steps, digest %#016x",
			tr.n, tr.h.Sum64(), wantSteps, wantDigest)
	}
}

package exec

import (
	"bytes"
	"testing"

	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// scriptPlan replays a fixed sequence of verb groups and records every
// completion, optionally short-circuiting after a group.
type scriptPlan struct {
	groups [][]Verb
	stopAt int // short-circuit: finish after absorbing group stopAt (-1 = never)
	next   int
	got    [][]Result
	eager  []bool
}

func (p *scriptPlan) Step(eager bool) []Verb {
	if p.next >= len(p.groups) {
		return nil
	}
	if p.stopAt >= 0 && p.next > p.stopAt {
		return nil
	}
	p.eager = append(p.eager, eager)
	g := p.groups[p.next]
	p.next++
	return g
}

// Absorb copies the group: a Runner recycles the slice after the call.
func (p *scriptPlan) Absorb(res []Result) { p.got = append(p.got, append([]Result(nil), res...)) }

func testNode(env *sim.Env) *rdma.Node {
	return rdma.NewNode(env, 1<<16, rdma.DefaultConfig())
}

func read(ep *rdma.Endpoint, addr uint64, n int) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchRead, Addr: addr, Len: n}}
}

func write(ep *rdma.Endpoint, addr uint64, data []byte) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchWrite, Addr: addr, Data: data}}
}

func cas(ep *rdma.Endpoint, addr, expect, swap uint64) Verb {
	return Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchCAS, Addr: addr, Expect: expect, Swap: swap}}
}

// TestSerialRunsPlanToCompletion checks the serial strategy issues one
// synchronous verb per round trip in plan order and feeds groups back.
func TestSerialRunsPlanToCompletion(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		pl := &scriptPlan{stopAt: -1, groups: [][]Verb{
			{write(ep, 0, []byte("hello"))},
			{read(ep, 0, 5), read(ep, 0, 2)},
		}}
		var r SerialRunner
		r.Run(pl)
		if len(pl.got) != 2 {
			t.Fatalf("absorbed %d groups, want 2", len(pl.got))
		}
		if !bytes.Equal(pl.got[1][0].Data, []byte("hello")) || !bytes.Equal(pl.got[1][1].Data, []byte("he")) {
			t.Fatalf("reads returned %q, %q", pl.got[1][0].Data, pl.got[1][1].Data)
		}
		for _, e := range pl.eager {
			if e {
				t.Fatal("serial strategy asked for eager traversal")
			}
		}
		if n.Stats.DoorbellBatches != 0 {
			t.Fatalf("serial run posted %d doorbells", n.Stats.DoorbellBatches)
		}
	})
	env.Run()
}

// TestDoorbellOneBatchPerRound checks that a round posts exactly one
// doorbell per endpoint regardless of how many plans contributed.
func TestDoorbellOneBatchPerRound(t *testing.T) {
	env := sim.NewEnv(2)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		var plans []Plan
		for i := 0; i < 8; i++ {
			addr := uint64(i * 8)
			plans = append(plans, &scriptPlan{stopAt: -1, groups: [][]Verb{
				{write(ep, addr, []byte{byte(i)})},
				{read(ep, addr, 1)},
			}})
		}
		var r DoorbellRunner
		r.Run(plans)
		if n.Stats.DoorbellBatches != 2 {
			t.Fatalf("posted %d doorbells, want 2 (one per round)", n.Stats.DoorbellBatches)
		}
		for i, pl := range plans {
			got := pl.(*scriptPlan).got
			if got[1][0].Data[0] != byte(i) {
				t.Fatalf("plan %d read %d", i, got[1][0].Data[0])
			}
			for _, e := range pl.(*scriptPlan).eager {
				if !e {
					t.Fatal("doorbell strategy asked for lazy traversal")
				}
			}
		}
	})
	env.Run()
}

// TestDoorbellDedupsIdenticalReads checks identical READs across plans in
// one round issue once and fan out, while distinct reads don't merge.
func TestDoorbellDedupsIdenticalReads(t *testing.T) {
	env := sim.NewEnv(3)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		copy(n.Mem()[0:], "shared!!")
		a := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 0, 8)}}}
		b := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(ep, 0, 8), read(ep, 8, 8)}}}
		var r DoorbellRunner
		r.Run([]Plan{a, b})
		if n.Stats.Reads != 2 {
			t.Fatalf("issued %d READs, want 2 (shared read deduped)", n.Stats.Reads)
		}
		if !bytes.Equal(a.got[0][0].Data, []byte("shared!!")) ||
			!bytes.Equal(b.got[0][0].Data, []byte("shared!!")) {
			t.Fatal("deduped read did not fan out to both plans")
		}
	})
	env.Run()
}

// TestDoorbellMultiEndpoint checks a round spanning two nodes posts one
// doorbell per endpoint and routes results correctly.
func TestDoorbellMultiEndpoint(t *testing.T) {
	env := sim.NewEnv(4)
	n1, n2 := testNode(env), testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep1, ep2 := rdma.NewEndpoint(n1, p), rdma.NewEndpoint(n2, p)
		copy(n1.Mem()[0:], "one")
		copy(n2.Mem()[0:], "two")
		pl := &scriptPlan{stopAt: -1, groups: [][]Verb{
			{read(ep1, 0, 3), read(ep2, 0, 3)},
		}}
		var r DoorbellRunner
		r.Run([]Plan{pl})
		if !bytes.Equal(pl.got[0][0].Data, []byte("one")) || !bytes.Equal(pl.got[0][1].Data, []byte("two")) {
			t.Fatalf("cross-node results misrouted: %q %q", pl.got[0][0].Data, pl.got[0][1].Data)
		}
		if n1.Stats.DoorbellBatches != 1 || n2.Stats.DoorbellBatches != 1 {
			t.Fatalf("doorbells: %d/%d, want 1/1", n1.Stats.DoorbellBatches, n2.Stats.DoorbellBatches)
		}
	})
	env.Run()
}

// TestDoorbellPlanOrderPreserved checks same-round CASes land in plan
// order: the first plan's CAS wins, later ones observe it.
func TestDoorbellPlanOrderPreserved(t *testing.T) {
	env := sim.NewEnv(5)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(n, p)
		a := &scriptPlan{stopAt: -1, groups: [][]Verb{{cas(ep, 0, 0, 11)}}}
		b := &scriptPlan{stopAt: -1, groups: [][]Verb{{cas(ep, 0, 0, 22)}}}
		var r DoorbellRunner
		r.Run([]Plan{a, b})
		if !a.got[0][0].Swapped {
			t.Fatal("first plan's CAS lost")
		}
		if b.got[0][0].Swapped || b.got[0][0].Old != 11 {
			t.Fatalf("second plan's CAS: swapped=%v old=%d, want loss observing 11",
				b.got[0][0].Swapped, b.got[0][0].Old)
		}
	})
	env.Run()
}

// TestShortCircuitSkipsRemainingStages checks a plan that finishes early
// (hit in the first bucket) stops being stepped under both strategies.
func TestShortCircuitSkipsRemainingStages(t *testing.T) {
	for _, s := range []Strategy{Serial, Doorbell} {
		env := sim.NewEnv(6)
		n := testNode(env)
		env.Go("c", func(p *sim.Proc) {
			ep := rdma.NewEndpoint(n, p)
			pl := &scriptPlan{stopAt: 0, groups: [][]Verb{
				{read(ep, 0, 4)},
				{read(ep, 8, 4)}, // must never be issued
			}}
			var r Runner
			r.RunPlans(s, []Plan{pl})
			if len(pl.got) != 1 || n.Stats.Reads != 1 {
				t.Fatalf("%v: absorbed %d groups with %d READs, want 1/1",
					s, len(pl.got), n.Stats.Reads)
			}
		})
		env.Run()
	}
}

// TestRunEmpty covers degenerate inputs.
func TestRunEmpty(t *testing.T) {
	var r Runner
	r.RunPlans(Doorbell, nil)
	r.RunPlans(Serial, nil)
	env := sim.NewEnv(7)
	n := testNode(env)
	env.Go("c", func(p *sim.Proc) {
		pl := &scriptPlan{stopAt: -1} // no groups at all
		r.RunPlans(Doorbell, []Plan{pl})
		r.RunPlans(Serial, []Plan{pl})
		if n.Stats.Total() != 0 {
			t.Fatal("empty plans issued verbs")
		}
	})
	env.Run()
}

// recPlan CASes its word from 0 to id, then reads the word back into a
// caller-owned buffer, keeping every completion in fixed fields — an
// allocation-free plan, so runs of it can be alloc-counted.
type recPlan struct {
	ep      *rdma.Endpoint
	addr    uint64
	id      uint64
	buf     []byte
	verb    [1]Verb
	st      int
	old     uint64
	swapped bool
	data    []byte
}

func newRecPlan(ep *rdma.Endpoint, addr, id uint64) *recPlan {
	return &recPlan{ep: ep, addr: addr, id: id, buf: make([]byte, 8)}
}

func (p *recPlan) Step(bool) []Verb {
	switch p.st {
	case 0:
		p.verb[0] = cas(p.ep, p.addr, 0, p.id)
	case 1:
		p.verb[0] = Verb{EP: p.ep, Op: rdma.BatchOp{Kind: rdma.BatchRead, Addr: p.addr, Len: 8, Buf: p.buf}}
	default:
		return nil
	}
	return p.verb[:]
}

func (p *recPlan) Absorb(res []Result) {
	if p.st == 0 {
		p.old, p.swapped = res[0].Old, res[0].Swapped
	} else {
		p.data = res[0].Data
	}
	p.st++
}

// nestPlan issues one READ and, from inside its Absorb, runs inner on
// the same runner — the shape of a batched Set whose absorb falls into
// doorbell-strategy eviction.
type nestPlan struct {
	r     *DoorbellRunner
	verb  [1]Verb
	inner []Plan
	done  bool
}

func (p *nestPlan) Step(bool) []Verb {
	if p.done {
		return nil
	}
	return p.verb[:]
}

func (p *nestPlan) Absorb([]Result) {
	p.done = true
	p.r.Run(p.inner)
}

// reentrantFixture builds, on a fresh node, four recPlans — two racing
// for one word, so the round exercises read dedup and plan-order CAS —
// and an outer nestPlan wrapping them.
func reentrantFixture(p *sim.Proc, n *rdma.Node, r *DoorbellRunner) ([]*recPlan, *nestPlan) {
	ep := rdma.NewEndpoint(n, p)
	recs := []*recPlan{
		newRecPlan(ep, 0, 1), newRecPlan(ep, 0, 2),
		newRecPlan(ep, 8, 3), newRecPlan(ep, 16, 4),
	}
	outer := &nestPlan{r: r}
	outer.verb[0] = Verb{EP: ep, Op: rdma.BatchOp{Kind: rdma.BatchRead, Addr: 64, Len: 8, Buf: make([]byte, 8)}}
	for _, rp := range recs {
		outer.inner = append(outer.inner, rp)
	}
	return recs, outer
}

// TestDoorbellReentrantRunMatchesFlat checks that a doorbell run started
// from inside an Absorb on the same runner — served by the nested
// runner — produces exactly the completions the same plans get from an
// un-nested run, and leaves the outer run intact.
func TestDoorbellReentrantRunMatchesFlat(t *testing.T) {
	type outcome struct {
		old     uint64
		swapped bool
		data    string
	}
	run := func(nested bool) []outcome {
		env := sim.NewEnv(8)
		n := testNode(env)
		var out []outcome
		env.Go("c", func(p *sim.Proc) {
			var r DoorbellRunner
			recs, outer := reentrantFixture(p, n, &r)
			if nested {
				r.Run([]Plan{outer})
				if !outer.done || r.nested == nil {
					t.Fatal("outer plan did not run the inner plans on a nested runner")
				}
			} else {
				r.Run(outer.inner)
			}
			for _, rp := range recs {
				out = append(out, outcome{rp.old, rp.swapped, string(rp.data)})
			}
		})
		env.Run()
		return out
	}
	flat, nested := run(false), run(true)
	if len(flat) != 4 || len(nested) != 4 {
		t.Fatalf("plans finished: flat %d, nested %d, want 4", len(flat), len(nested))
	}
	for i := range flat {
		if flat[i] != nested[i] {
			t.Errorf("plan %d: nested %+v, flat %+v", i, nested[i], flat[i])
		}
	}
	if !flat[0].swapped || flat[1].swapped || flat[1].old != 1 {
		t.Errorf("same-word CASes: %+v %+v, want first to win and second to observe it", flat[0], flat[1])
	}
}

// TestDoorbellRunnerReusableAfterUnreachable checks that a round raising
// rdma's NodeUnreachableError (a replica fan-out reaching a fail-stopped
// node) leaves the runner usable: the next run on the same runner is a
// top-level run with correct results, not a nested one.
func TestDoorbellRunnerReusableAfterUnreachable(t *testing.T) {
	env := sim.NewEnv(10)
	live, dead := testNode(env), testNode(env)
	env.Go("c", func(p *sim.Proc) {
		epL, epD := rdma.NewEndpoint(live, p), rdma.NewEndpoint(dead, p)
		copy(live.Mem()[0:], "live")
		dead.Fail()
		var r DoorbellRunner
		failed := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(epL, 0, 4), read(epD, 0, 4)}}}
		err := rdma.CatchUnreachable(func() { r.Run([]Plan{failed}) })
		if !rdma.IsUnreachable(err) {
			t.Fatalf("round over a failed node: err = %v, want unreachable", err)
		}
		pl := &scriptPlan{stopAt: -1, groups: [][]Verb{{read(epL, 0, 4)}}}
		r.Run([]Plan{pl})
		if r.nested != nil {
			t.Fatal("run after the failed round went to the nested runner")
		}
		if len(pl.got) != 1 || !bytes.Equal(pl.got[0][0].Data, []byte("live")) {
			t.Fatalf("run after the failed round absorbed %v", pl.got)
		}
	})
	env.Run()
}

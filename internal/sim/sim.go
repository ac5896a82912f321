// Package sim implements a deterministic discrete-event virtual-time
// execution environment.
//
// Ditto's evaluation depends on counting round trips and on which shared
// resource (the memory-node RNIC's message rate, or the memory-node CPU)
// saturates first. This package provides the substrate used to model that
// behaviour without RDMA hardware: processes advance a shared virtual clock
// one event at a time, and Resource models k-server FIFO queueing in
// virtual time.
//
// Each process is a stdlib coroutine (iter.Pull). Env.Run pops the next
// event and resumes its process; the process runs until it sleeps, waits,
// or finishes, and each of those is one direct coroutine switch back to
// Run. Exactly one process runs at any instant, so interleaving happens at
// event boundaries, which is precisely the granularity at which remote
// verbs (READ/WRITE/CAS/FAA) interleave on real disaggregated memory. The
// model is fully deterministic for a fixed seed.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
)

// Virtual-time unit constants. Virtual time is int64 nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000
	Millisecond int64 = 1000 * Microsecond
	Second      int64 = 1000 * Millisecond
	Minute      int64 = 60 * Second
)

// event is a scheduled wake-up of a process.
type event struct {
	t   int64
	seq uint64 // tiebreak for deterministic ordering of same-time events
	p   *Proc
}

// eventHeap is a hand-rolled binary min-heap over events, ordered by
// (t, seq). It deliberately does NOT implement container/heap: that
// interface boxes the 24-byte event struct into an interface{} on every
// Push AND every Pop, and the event heap is the single hottest allocation
// site in the whole simulator (every Sleep, yield and verb completion
// goes through it). The (t, seq) order is a strict total order (seq is
// unique), so pops are deterministic regardless of internal layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// push adds ev and restores the heap invariant. The backing array is
// reused across pops, so steady-state pushes allocate nothing.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	// Sift up.
	s := *h
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !s.less(j, parent) {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the Proc reference so finished procs can be collected
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return ev
}

// Env is a virtual-time environment. Create one with NewEnv, register
// processes with Go, and drive them with Run.
type Env struct {
	now     int64
	seq     uint64
	events  eventHeap
	nextID  int
	seed    int64
	stopped bool
	procs   []*Proc // every registered process, in Go order (for FindProc)
	cur     *Proc   // the process executing right now (self-Kill guard)
}

// NewEnv returns an environment at virtual time zero. The seed determines
// every random choice made by processes that use their per-process RNG.
func NewEnv(seed int64) *Env {
	return &Env{seed: seed}
}

// Now returns the current virtual time in nanoseconds.
func (e *Env) Now() int64 { return e.now }

// Stop makes Run return after the currently running process yields.
// Pending events are kept: a later Run resumes the timeline where it
// stopped, waking every process blocked in Sleep or Wait in order. If Run
// is never called again, those processes are simply never resumed.
func (e *Env) Stop() { e.stopped = true }

func (e *Env) push(t int64, p *Proc) {
	e.seq++
	e.events.push(event{t: t, seq: e.seq, p: p})
}

// Proc is a process executing in virtual time. A Proc must only be used
// from its own body (the function passed to Go) — except for the
// crash API (Env.Kill, Killed, OnCrash-registered state), which other
// processes use to model fail-stop node and process failures.
type Proc struct {
	env     *Env
	next    func() (struct{}, bool) // resumes the coroutine; false once it has finished
	yieldFn func(struct{}) bool     // switches from the coroutine back to Run
	id      int
	name    string
	rng     *rand.Rand
	done    bool
	killed  bool
	onCrash []func() // LIFO cleanup hooks run by Env.Kill
}

// ID returns the process's unique id, assigned in Go order.
func (p *Proc) ID() int { return p.id }

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Rand returns the process's private deterministic RNG.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Now returns the current virtual time.
func (p *Proc) Now() int64 { return p.env.now }

// Killed reports whether the process was removed by Env.Kill. Crash-aware
// shared structures (e.g. per-entry locks) consult it to detect abandoned
// ownership: a killed process will never run again, so whatever it held
// can be safely stolen.
func (p *Proc) Killed() bool { return p.killed }

// Alive reports whether the process has neither finished nor been killed.
func (p *Proc) Alive() bool { return !p.done }

// OnCrash registers a cleanup hook run if this process is killed by
// Env.Kill (hooks run LIFO, most recent first). Hooks execute in the
// killer's scheduling slice: they MUST NOT yield (no Sleep, no verbs, no
// blocking waits) but may register new processes with Env.Go — the idiom
// crash-recovery supervisors use to respawn a died worker. Hooks do not
// run on normal process exit.
func (p *Proc) OnCrash(fn func()) { p.onCrash = append(p.onCrash, fn) }

// Go registers fn as a new process starting at the current virtual time.
// It may be called before Run or from inside a running process (e.g. to add
// clients mid-experiment, as the elasticity experiments do).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt registers fn as a new process that starts at virtual time t (which
// must be >= Now). The process body runs as a coroutine resumed by Run.
func (e *Env) GoAt(t int64, name string, fn func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: GoAt(%d) in the past (now=%d)", t, e.now))
	}
	p := &Proc{
		env:  e,
		id:   e.nextID,
		name: name,
		rng:  rand.New(rand.NewSource(e.seed ^ int64(uint64(e.nextID+1)*0x9e3779b97f4a7c15>>1))),
	}
	e.nextID++
	e.procs = append(e.procs, p)
	// The stop function is unused: a process runs to its end, or is
	// abandoned where it blocked (killed, or pending when Run is not
	// called again).
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		fn(p)
	})
	e.push(t, p)
	return p
}

// Run executes events until none remain or Stop is called. It must be
// called from the goroutine that owns the Env (typically the test or
// benchmark body). Run may be called repeatedly; later Go calls followed by
// Run continue the same timeline.
//
// Processes run on Run's behalf, so their failures are Run's: a panic
// inside a process is re-raised from Run to its caller, and a
// runtime.Goexit inside a process (t.Fatal, for instance) ends the
// goroutine that called Run. Either way the Env is left mid-event and
// must not be used again.
func (e *Env) Run() {
	for len(e.events) > 0 && !e.stopped {
		ev := e.events.pop()
		p := ev.p
		if p.done {
			continue // stale wake-up for a finished process
		}
		if ev.t < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.t
		e.cur = p
		if _, ok := p.next(); !ok {
			// Finished. Env.procs keeps p for FindProc, so drop the
			// coroutine closures: they hold everything the body captured.
			p.done = true
			p.next, p.yieldFn = nil, nil
		}
		e.cur = nil
	}
	e.stopped = false
}

// Kill removes process p from the simulation immediately: a fail-stop
// crash at the current virtual time. p never runs again — its pending
// wake-ups are discarded, condition variables that would wake it skip it,
// and its coroutine is never resumed, so it stays abandoned where it
// blocked (acceptable for one-shot experiment runs). p's OnCrash hooks
// run LIFO in the caller's scheduling slice before Kill returns, so
// supervisors can respawn replacements with a consistent view of the
// crash instant. Killing a finished or already-killed process is a no-op;
// a process cannot kill itself (a self-crash is just returning).
// Kill reports whether p was actually removed.
func (e *Env) Kill(p *Proc) bool {
	if p.done {
		return false
	}
	if e.cur == p {
		panic("sim: a process cannot Kill itself")
	}
	p.done = true
	p.killed = true
	for i := len(p.onCrash) - 1; i >= 0; i-- {
		p.onCrash[i]()
	}
	p.onCrash = nil
	return true
}

// FindProc returns the most recently registered live process with the
// given name, or nil. Fault injectors use it to aim a Kill at an
// internally spawned process — "the resharder", "the reclaimer" — without
// the spawning subsystem having to export its handles.
func (e *Env) FindProc(name string) *Proc {
	for i := len(e.procs) - 1; i >= 0; i-- {
		if p := e.procs[i]; !p.done && p.name == name {
			return p
		}
	}
	return nil
}

// yield switches back to Run and returns when Run next resumes p.
func (p *Proc) yield() { p.yieldFn(struct{}{}) }

// Sleep advances the process's virtual time by d nanoseconds. d < 0 is
// treated as 0 (a pure yield that lets same-time events interleave).
func (p *Proc) Sleep(d int64) {
	if d < 0 {
		d = 0
	}
	p.env.push(p.env.now+d, p)
	p.yield()
}

// SleepUntil advances the process to virtual time t. If t is in the past it
// behaves like Sleep(0).
func (p *Proc) SleepUntil(t int64) {
	if t < p.env.now {
		t = p.env.now
	}
	p.env.push(t, p)
	p.yield()
}

// park blocks the process without scheduling a wake-up. Something else must
// wake it via wake.
func (p *Proc) park() { p.yield() }

// wake schedules p to resume at time t.
func (e *Env) wake(p *Proc, t int64) { e.push(t, p) }

// Cond is a virtual-time condition variable: processes Wait, another
// process Broadcasts to wake all waiters at the current virtual time.
type Cond struct {
	env     *Env
	waiters []*Proc
}

// NewCond returns a condition variable bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every waiter at the current virtual time. The caller
// keeps running; waiters resume when the caller next yields.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.env.wake(w, c.env.now)
	}
	c.waiters = c.waiters[:0]
}

// NumWaiters returns how many processes are blocked on the Cond.
func (c *Cond) NumWaiters() int { return len(c.waiters) }

// Resource models a k-server FIFO queue in virtual time: think NIC message
// processors or memory-node CPU cores. Acquire reserves the earliest
// available server for a given service time and returns the completion
// time; the caller decides whether to wait for it (synchronous verb) or not
// (asynchronous/doorbell verb). Because exactly one process runs at a time,
// no locking is needed.
type Resource struct {
	env  *Env
	free []int64 // next-free virtual time per server
	// Busy accumulates total service time charged, for utilization stats.
	Busy int64
	// Ops counts Acquire calls.
	Ops int64
}

// NewResource creates a resource with `servers` parallel servers.
func NewResource(env *Env, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{env: env, free: make([]int64, servers)}
}

// Servers returns the number of parallel servers.
func (r *Resource) Servers() int { return len(r.free) }

// SetServers changes the number of servers (used by experiments that scale
// MN CPU cores at runtime). Growing adds idle servers; shrinking drops the
// busiest ones.
func (r *Resource) SetServers(n int) {
	if n < 1 {
		panic("sim: resource needs at least one server")
	}
	for len(r.free) < n {
		r.free = append(r.free, r.env.now)
	}
	if len(r.free) > n {
		// Keep the n earliest-free servers.
		for i := 0; i < n; i++ {
			for j := i + 1; j < len(r.free); j++ {
				if r.free[j] < r.free[i] {
					r.free[i], r.free[j] = r.free[j], r.free[i]
				}
			}
		}
		r.free = r.free[:n]
	}
}

// Acquire reserves the earliest-free server for svc nanoseconds of service
// starting no earlier than now, and returns the completion time.
func (r *Resource) Acquire(svc int64) int64 {
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	start := r.free[best]
	if now := r.env.now; start < now {
		start = now
	}
	end := start + svc
	r.free[best] = end
	r.Busy += svc
	r.Ops++
	return end
}

// Utilization returns Busy divided by (servers × elapsed) for elapsed > 0.
func (r *Resource) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.Busy) / (float64(elapsed) * float64(len(r.free)))
}

// FaultSchedule arms fail-stop faults at virtual-time points. It is the
// deterministic substrate of the chaos suite (internal/chaos): every
// fault time and every randomized choice inside a fault function derives
// from the schedule's seed, so a failing run reproduces from that one
// number. Faults are ordinary processes — they fire at event boundaries,
// exactly where concurrent verbs interleave — named "fault:<name>" so
// transcripts show which injection ran.
type FaultSchedule struct {
	env  *Env
	rng  *rand.Rand
	seed int64
	// Armed records every scheduled (time, name) pair in arming order, so
	// a failure report can print the exact schedule alongside the seed.
	Armed []FaultPoint
}

// FaultPoint is one armed fault: when it fires and what it is called.
type FaultPoint struct {
	T    int64
	Name string
}

// NewFaultSchedule creates a schedule whose randomized choices (Between,
// Rand) derive from seed.
func NewFaultSchedule(env *Env, seed int64) *FaultSchedule {
	return &FaultSchedule{
		env:  env,
		rng:  rand.New(rand.NewSource(seed ^ 0x5deece66d)),
		seed: seed,
	}
}

// Seed returns the schedule's seed (printed by failing chaos runs).
func (f *FaultSchedule) Seed() int64 { return f.seed }

// Rand exposes the schedule's deterministic RNG for fault functions that
// need further choices (which node to kill, which key range to target).
func (f *FaultSchedule) Rand() *rand.Rand { return f.rng }

// At arms fault to fire at virtual time t (>= now).
func (f *FaultSchedule) At(t int64, name string, fault func(p *Proc)) {
	if t < f.env.now {
		t = f.env.now
	}
	f.Armed = append(f.Armed, FaultPoint{T: t, Name: name})
	f.env.GoAt(t, "fault:"+name, fault)
}

// Between arms fault at a seed-chosen time in [lo, hi] and returns the
// chosen time.
func (f *FaultSchedule) Between(lo, hi int64, name string, fault func(p *Proc)) int64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	t := lo + f.rng.Int63n(hi-lo+1)
	f.At(t, name, fault)
	return t
}

// String renders the armed schedule for failure reports.
func (f *FaultSchedule) String() string {
	s := fmt.Sprintf("seed=%d", f.seed)
	for _, a := range f.Armed {
		s += fmt.Sprintf(" [%s@%dns]", a.Name, a.T)
	}
	return s
}

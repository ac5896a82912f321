// Package exec is the verb-plan executor: the single engine behind
// Ditto's serial, batched, and migration I/O.
//
// The paper's client-centric design (§4.1) makes every cache operation a
// short, fixed sequence of one-sided verbs composed client-side — bucket
// READ(s), object READ(s), an object WRITE, a publishing CAS — with
// fallback edges where a snapshot can go stale or a CAS can lose a race.
// This package lets an operation be expressed ONCE as such a staged verb
// plan (a Plan), and runs any set of plans through a Runner under one of
// two Strategies:
//
//   - Serial: one verb per round trip, traversing each plan lazily — a
//     stage short-circuits as soon as its outcome is known (a Get that
//     hits in the main bucket never reads the backup bucket). This is the
//     paper's per-key critical path and its verb budget.
//   - Doorbell: plans advance in lock-step rounds; each round gathers
//     every plan's next verbs and posts them per endpoint with ONE RNIC
//     doorbell (rdma.Endpoint.PostBatch), so the whole round costs its
//     RNIC service time plus a single RTT. Plans traverse eagerly (both
//     candidate buckets at once) so a round is one pipeline stage across
//     the batch. Identical READs posted by different plans in the same
//     round are issued once and fanned out.
//
// Plans whose doorbell attempt hits a complication (stale snapshot, lost
// CAS, full bucket) simply finish with that outcome; their drivers demote
// them to the serial retry path, which re-runs the SAME plan definition
// under the Serial strategy — so batched and sequential execution are
// observably equivalent by construction, and the verb sequences live in
// exactly one place.
package exec

import "ditto/internal/rdma"

// Strategy selects how a set of plans traverses its verb stages. The
// strategies differ ONLY in traversal shape and round-trip overlap —
// every plan reaches the same outcome under either (complications
// included), which is what lets drivers demote a doorbell plan to the
// serial retry path without changing observable behaviour.
type Strategy int

// The two execution strategies.
const (
	// Serial runs plans one at a time, one synchronous verb per round
	// trip, with lazy (short-circuiting) stage traversal.
	Serial Strategy = iota
	// Doorbell runs plans in lock-step rounds, posting each round's verbs
	// as one doorbell batch per endpoint, with eager stage traversal.
	Doorbell
)

// String returns the strategy's lowercase name ("serial"/"doorbell"),
// stable for use in subtest names and bench output.
func (s Strategy) String() string {
	if s == Doorbell {
		return "doorbell"
	}
	return "serial"
}

// Verb is one one-sided verb of a plan stage, addressed to the endpoint
// that must issue it (plans may span endpoints: a migration reads and
// CASes the source node while writing the destination, and a replica
// fan-out writes several destinations at once). A Verb is immutable
// once emitted by Step: the executor may issue it in any round-trip
// order relative to OTHER plans' verbs, but never reorders verbs within
// one plan's emission.
type Verb struct {
	EP *rdma.Endpoint
	Op rdma.BatchOp
}

// Result is the completion of one Verb. Results are delivered to Absorb
// in the same order as the Verbs of the group that produced them —
// Result[i] completes Verb[i] — regardless of strategy.
type Result = rdma.BatchResult

// Plan is one cache operation attempt expressed as staged verb groups.
// The executor repeatedly calls Step for the next group, issues it under
// the strategy, and feeds the completions to Absorb; a nil Step ends the
// plan (its outcome is plan-specific state the driver inspects).
//
// eager selects the batched shape of a stage — e.g. read BOTH candidate
// buckets, then ALL candidate objects, as one group each — over the
// serial shape, which yields the smallest group whose result can
// short-circuit the rest (one bucket, then one object at a time). This
// flag is the ONLY difference between how the two strategies traverse a
// plan; everything else (what is read, how results are interpreted,
// which fallback edge is taken) is shared.
type Plan interface {
	Step(eager bool) []Verb
	Absorb(res []Result)
}

// issueSync issues one verb through the endpoint's synchronous API.
func issueSync(v Verb) Result {
	switch v.Op.Kind {
	case rdma.BatchRead:
		return Result{Data: v.EP.ReadInto(v.Op.Addr, v.Op.Len, v.Op.Buf)}
	case rdma.BatchWrite:
		v.EP.Write(v.Op.Addr, v.Op.Data)
		return Result{}
	case rdma.BatchCAS:
		old, swapped := v.EP.CAS(v.Op.Addr, v.Op.Expect, v.Op.Swap)
		return Result{Old: old, Swapped: swapped}
	case rdma.BatchFAA:
		return Result{Old: v.EP.FAA(v.Op.Addr, v.Op.Delta)}
	}
	panic("exec: unknown verb kind")
}

// Runner is the executor: it runs plans under a strategy until every
// plan finishes (Step returns an empty group). Under Serial the plans
// run one after another to completion; under Doorbell they advance
// together in lock-step rounds. Either way, every plan's Absorb has seen
// the completion of every verb it emitted by the time a run returns.
//
// A Runner belongs to one process (a client, a reclaimer, a resharder),
// so its scratch is single-proc-owned and steady-state execution
// allocates nothing. Plans must not retain the []Result slice passed to
// Absorb past the Absorb call — it is recycled for the next stage.
// (Result.Data buffers are not recycled by the runner; their lifetime is
// whatever the plan arranged via BatchOp.Buf.)
type Runner struct {
	Serial   SerialRunner
	Doorbell DoorbellRunner
}

// RunPlans drives a set of plans under the strategy.
func (r *Runner) RunPlans(s Strategy, plans []Plan) {
	if s == Doorbell {
		r.Doorbell.Run(plans)
		return
	}
	for _, p := range plans {
		r.Serial.Run(p)
	}
}

// SerialRunner drives one plan at a time with synchronous verbs: each
// verb of a group costs queueing plus one RTT — the paper's per-key
// critical path. Per-stage result buffers come from a stack, which makes
// it re-entrant: an Absorb that starts a nested serial run (a Set
// falling into inline eviction) pops its own buffers and returns them
// before the outer stage resumes.
type SerialRunner struct {
	free [][]Result
}

// Run drives one plan to completion.
func (r *SerialRunner) Run(p Plan) {
	for {
		vs := p.Step(false)
		if len(vs) == 0 {
			return
		}
		var res []Result
		if n := len(r.free); n > 0 {
			res, r.free = r.free[n-1][:0], r.free[:n-1]
		}
		for _, v := range vs {
			res = append(res, issueSync(v))
		}
		p.Absorb(res)
		r.free = append(r.free, res)
	}
}

// slot maps one plan verb to its position in an endpoint batch.
type slot struct {
	ep  *rdma.Endpoint
	idx int
}

// epBatch accumulates one endpoint's ops for a round.
type epBatch struct {
	ep    *rdma.Endpoint
	ops   []rdma.BatchOp
	reads map[readKey]int // dedup: identical READs issue once
	res   []Result
}

// readKey identifies a read for within-round deduplication.
type readKey struct {
	addr uint64
	len  int
}

// dbPending is one plan's share of a pooled doorbell round: its verbs
// occupy slots [lo, hi) of the runner's slot arena. Ranges (not
// subslices) because the arena may grow while later plans append.
type dbPending struct {
	plan   Plan
	lo, hi int
}

// DoorbellRunner drives plans in lock-step rounds. Each round collects
// every unfinished plan's next verb group, posts one doorbell batch per
// endpoint (endpoints in first-use order, verbs in plan order) with the
// round trips overlapped across endpoints too (rdma.PostMulti —
// queue pairs to different nodes are independent, so a round spanning
// the migration source and several destinations still costs ~one RTT),
// scatters the completions back, and lets every plan absorb before the
// next round begins. Plans at different stages coexist in a round — a
// plan that skips a stage (no candidate objects to read) posts its next
// stage's verbs alongside the others', which only merges doorbells,
// never reorders one plan's own verbs. Identical READs across plans are
// issued once; WRITE/CAS/FAA are never deduplicated.
//
// Every piece of round state — the active set, the per-endpoint batches
// and their result slices, the slot arena, the post list — is retained
// across runs, so a steady-state round allocates nothing (results land
// in place). A re-entrant run (an Absorb that falls into doorbell-
// strategy eviction) goes to a lazily created nested runner, which runs
// the same rounds on its own scratch instead of clobbering the
// in-flight round's.
type DoorbellRunner struct {
	busy    bool
	nested  *DoorbellRunner
	active  []Plan
	round   []dbPending
	order   []*epBatch
	batches map[*rdma.Endpoint]*epBatch
	freeEB  []*epBatch
	posts   []rdma.EndpointBatch
	slots   []slot
	res     []Result
}

// Run drives the plans to completion in lock-step rounds.
func (r *DoorbellRunner) Run(plans []Plan) {
	if r.busy {
		if r.nested == nil {
			//dittolint:allow hotalloc (once-per-runner lazy init of the re-entrant runner, not per call)
			r.nested = new(DoorbellRunner)
		}
		r.nested.Run(plans)
		return
	}
	r.busy = true
	//dittolint:allow hotalloc (deferred busy-reset closure is open-coded by the compiler and stack-allocated; kept for panic safety)
	defer func() { r.busy = false }()
	if r.batches == nil {
		//dittolint:allow hotalloc (once-per-runner lazy init, not per call)
		r.batches = make(map[*rdma.Endpoint]*epBatch)
	}
	r.active = append(r.active[:0], plans...)
	active := r.active
	for len(active) > 0 {
		r.round = r.round[:0]
		r.slots = r.slots[:0]
		r.freeEB = append(r.freeEB, r.order...)
		r.order = r.order[:0]
		clear(r.batches)
		next := active[:0]
		for _, p := range active {
			vs := p.Step(true)
			if len(vs) == 0 {
				continue // plan finished
			}
			lo := len(r.slots)
			for _, v := range vs {
				b := r.batches[v.EP]
				if b == nil {
					b = r.getEpBatch(v.EP)
					r.batches[v.EP] = b
					r.order = append(r.order, b)
				}
				if v.Op.Kind == rdma.BatchRead {
					k := readKey{addr: v.Op.Addr, len: v.Op.Len}
					if j, seen := b.reads[k]; seen {
						r.slots = append(r.slots, slot{ep: v.EP, idx: j})
						continue
					}
					b.reads[k] = len(b.ops)
				}
				r.slots = append(r.slots, slot{ep: v.EP, idx: len(b.ops)})
				b.ops = append(b.ops, v.Op)
			}
			r.round = append(r.round, dbPending{plan: p, lo: lo, hi: len(r.slots)})
			next = append(next, p)
		}
		if len(r.round) == 0 {
			break
		}
		r.posts = r.posts[:0]
		for _, b := range r.order {
			r.posts = append(r.posts, rdma.EndpointBatch{EP: b.ep, Ops: b.ops, Res: b.res[:0]})
		}
		rdma.PostMulti(r.posts)
		for i, b := range r.order {
			b.res = r.posts[i].Res
		}
		for _, pd := range r.round {
			res := r.res[:0]
			for _, s := range r.slots[pd.lo:pd.hi] {
				res = append(res, r.batches[s.ep].res[s.idx])
			}
			pd.plan.Absorb(res)
			r.res = res[:0]
		}
		active = next
	}
	// Drop plan references so finished plans are not pinned by the
	// runner between operations (they go back to the caller's pool).
	clear(r.active[:cap(r.active)])
	r.active = r.active[:0]
	for i := range r.round {
		r.round[i].plan = nil
	}
}

// getEpBatch recycles an endpoint batch from the free list or makes one.
func (r *DoorbellRunner) getEpBatch(ep *rdma.Endpoint) *epBatch {
	if n := len(r.freeEB); n > 0 {
		b := r.freeEB[n-1]
		r.freeEB = r.freeEB[:n-1]
		b.ep = ep
		b.ops = b.ops[:0]
		b.res = b.res[:0]
		clear(b.reads)
		return b
	}
	//dittolint:allow hotalloc (free-list miss: pool growth, amortized to zero at steady state)
	return &epBatch{ep: ep, reads: make(map[readKey]int)}
}

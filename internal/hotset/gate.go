package hotset

import "math"

// writeThroughCost is the load one write of a replicated key puts on
// EACH of its replica nodes, in units of one read served. A replicated
// Set invalidates every replica copy before the primary's publishing CAS
// and re-materializes the copies after it; counted per caller on the
// read-hot perfbench workload (R=3), that is ≈15 verbs of invalidation
// and ≈12 of re-materialization, ≈9 per replica, against the 2–4 verbs
// (bucket and object READs plus metadata touches) a spread read moves.
const writeThroughCost = 3

// ledger is the replication gate's per-node view of the current window.
// Every hit a client observes is charged to the node that served it
// (Hit): the key's ring owner, or for a spread read the replica it
// rotated to. Every write fanned out to a replica charges that node
// writeThroughCost (ChargeWriteThrough). The ledger ages with the
// admission sketch: when the sketch halves, at every W recorded hits,
// the loads, the write count and every entry's Reads/Writes halve too,
// so all of them count the same exponentially weighted window and
// compare in one unit.
//
// Promotion and demotion reprice the window so far: Insert moves the
// promoted key's estimated reads off the primary and onto the replicas
// at once, and Remove moves the entry's reads back, so the next decision
// sees the projected loads instead of waiting for the new routing to
// show up in the counts.
type ledger struct {
	load   []float64 // per node id: hits served plus write-through cost
	writes float64   // writes to keys the clients read (NoteWrite)
}

// at returns node's load, zero for a node never charged.
func (l *ledger) at(node int) float64 {
	if node < 0 || node >= len(l.load) {
		return 0
	}
	return l.load[node]
}

// charge adds delta to node's load, growing the ledger for a node never
// charged and never letting a load drop below zero (repricing can remove
// more than a halved window still holds).
func (l *ledger) charge(node int, delta float64) {
	if node < 0 {
		return
	}
	if node >= len(l.load) {
		l.load = append(l.load, make([]float64, node+1-len(l.load))...)
	}
	l.load[node] = max(0, l.load[node]+delta)
}

// Hit records one hit of the key with hash kh served by node: it feeds
// the admission sketch (Record) and charges node's load.
func (s *Set) Hit(kh uint64, node int) {
	s.ledger.charge(node, 1)
	s.Record(kh)
}

// NoteWrite counts one write of the key with hash kh toward the pool's
// write fraction — but only when the sketch has seen the key read this
// window. Writes to keys nobody reads (a preload, a write-only stream)
// say nothing about what writing a hot key costs, and counting them
// would price every candidate out of replication.
func (s *Set) NoteWrite(kh uint64) {
	if s.freq.estimate(kh) > 0 {
		s.ledger.writes++
	}
}

// ChargeWriteThrough records one write fanned out to e's replicas: the
// entry's write count and every replica node's load.
func (s *Set) ChargeWriteThrough(e *Entry) {
	e.Writes++
	for _, id := range e.Replicas {
		s.ledger.charge(id, writeThroughCost)
	}
}

// Spreads is the replication gate for a candidate with key hash kh, ring
// owner primary and ring-successor replicas: it admits the key only if
// spreading it lowers the projected load of the busiest node among them
// (see lowersMax). The key's reads are the sketch's estimate for the
// window, its writes that estimate times the pool's write-to-read ratio.
// Spreads allocates nothing.
func (s *Set) Spreads(kh uint64, primary int, replicas []int) bool {
	r := float64(s.freq.estimate(kh))
	w := 0.0
	if s.freq.samples > 0 {
		w = r * s.ledger.writes / float64(s.freq.samples)
	}
	return s.lowersMax(primary, replicas, r, w, false)
}

// Keeps applies the gate to an existing entry with its own window
// counts (Reads, Writes): it reports whether the entry's spreading still
// lowers the busiest node's load compared with serving every read from
// the primary. The replication layer demotes entries that fail it.
func (s *Set) Keeps(e *Entry) bool {
	return s.lowersMax(e.Primary, e.Replicas, float64(e.Reads), float64(e.Writes), true)
}

// lowersMax compares the busiest node among primary and replicas with
// and without spreading a key read r and written w times per window:
// spread, the primary keeps 1/(1+R) of the reads and each replica takes
// 1/(1+R) of them plus writeThroughCost per write. spread says whether
// the ledger already carries the spreading (an entry) or not (a
// candidate); the loads without it are reconstructed first.
//
// A key that is written must lower the maximum by more than the
// counting noise of the busiest node's load (√load, the standard
// deviation of a Poisson count). Without that margin the gate chases
// noise between evenly loaded nodes: each window some node leads by a
// few hits, a small key on it passes, and the directory fills with keys
// that move load around while every write to them pays the
// write-through. A key that is never written costs nothing after its
// materialization, so it needs no margin.
func (s *Set) lowersMax(primary int, replicas []int, r, w float64, spread bool) bool {
	share := r / float64(1+len(replicas))
	moved := r - share                  // leaves the primary
	added := share + writeThroughCost*w // lands on each replica
	p := s.ledger.at(primary)
	if spread {
		p += moved
	}
	before, after := p, p-moved
	for _, id := range replicas {
		q := s.ledger.at(id)
		if spread {
			q = max(0, q-added)
		}
		before = max(before, q)
		after = max(after, q+added)
	}
	if w > 0 {
		return after < before-math.Sqrt(before)
	}
	return after < before
}

// reprice moves the share of r reads that spreading takes off e's
// primary onto its replicas (sign +1, on promotion) or back (sign -1, on
// demotion).
func (s *Set) reprice(e *Entry, r float64, sign float64) {
	share := r / float64(1+len(e.Replicas))
	s.ledger.charge(e.Primary, -sign*(r-share))
	for _, id := range e.Replicas {
		s.ledger.charge(id, sign*share)
	}
}

// closeWindow runs when the sketch halves: every entry that no longer
// passes the gate on its window's counts is marked Unfit (the
// replication layer demotes it at its next touch), then the ledger and
// the entries' counts halve with the sketch.
func (s *Set) closeWindow() {
	//dittolint:allow simdet (each entry is judged on its own against the same ledger and only flags itself, so the result is iteration-order independent)
	for _, e := range s.entries {
		if !s.Keeps(e) {
			e.Unfit = true
		}
		e.Reads /= 2
		e.Writes /= 2
	}
	for i := range s.ledger.load {
		s.ledger.load[i] /= 2
	}
	s.ledger.writes /= 2
}

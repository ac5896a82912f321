package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one traced interval: a public call, an admin call, a phase, or
// a probe. Times are virtual ns, except host, the wall-clock ns a phase
// or probe took (an op's wall time would include other sim processes, so
// ops carry none).
type span struct {
	start, end int64
	host       int64
	parent     int32 // index of the enclosing span, -1 for none
	client     int32 // virtual client id, -1 for admin, phases and probes
	name       int16 // index into tracer.names
	hit        int8  // 1 hit, 0 miss, -1 not a lookup
}

// tracer keeps spans in memory; write emits them at the end as Chrome
// trace-event JSON.
type tracer struct {
	spans []span
	names []string
	ids   map[string]int16

	phase     int32 // span index of the open phase, -1 before the first
	phaseWall time.Time

	probes []span // kept across repetitions
}

func newTracer() *tracer {
	t := &tracer{ids: map[string]int16{}}
	for _, n := range opNames {
		t.intern(n)
	}
	return t
}

func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.phase = -1
}

func (t *tracer) intern(name string) int16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) op(k opKind, client int, t0, t1 int64) {
	t.spans = append(t.spans, span{start: t0, end: t1, parent: t.phase, client: int32(client), name: int16(k), hit: -1})
}

func (t *tracer) opHit(k opKind, client int, t0, t1 int64, hit bool) {
	h := int8(0)
	if hit {
		h = 1
	}
	t.spans = append(t.spans, span{start: t0, end: t1, parent: t.phase, client: int32(client), name: int16(k), hit: h})
}

// admin records an administrative call (AddNode, RemoveNode, WaitReshard).
func (t *tracer) admin(name string, parent int32, t0, t1 int64) {
	t.spans = append(t.spans, span{start: t0, end: t1, parent: parent, client: -1, name: t.intern(name), hit: -1})
}

// beginPhase closes the open phase at virtual time now and opens the next
// one (none when name is empty).
func (t *tracer) beginPhase(name string, now int64) {
	wall := time.Now()
	if t.phase >= 0 {
		ph := &t.spans[t.phase]
		ph.end = now
		ph.host = wall.Sub(t.phaseWall).Nanoseconds()
	}
	t.phase = -1
	if name == "" {
		return
	}
	t.phaseWall = wall
	t.phase = int32(len(t.spans))
	t.spans = append(t.spans, span{start: now, end: now, parent: -1, client: -1, name: t.intern(name), hit: -1})
}

// probe records a host-only measurement (virtual time does not apply).
func (t *tracer) probe(name string, hostNs int64) {
	t.probes = append(t.probes, span{parent: -1, client: -1, name: t.intern(name), host: hostNs, hit: -1})
}

// write emits the trace with the counters read at each phase boundary:
// pid 1 holds virtual time (tid 0 phases and admin calls, tid c+1 client
// c), pid 2 the probes on a host-time axis.
func (t *tracer) write(path string, snaps []poolCtr) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	b := make([]byte, 0, 256)
	w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		w.Write(b)
	}
	us := func(b []byte, ns int64) []byte { return strconv.AppendFloat(b, float64(ns)/1e3, 'f', 3, 64) }
	var probeAt int64
	for _, s := range t.probes {
		b = append(b[:0], `{"ph":"X","name":`...)
		b = strconv.AppendQuote(b, t.names[s.name])
		b = append(b, `,"pid":2,"tid":0,"ts":`...)
		b = us(b, probeAt)
		b = append(b, `,"dur":`...)
		b = us(b, s.host)
		b = append(b, '}')
		probeAt += s.host
		emit()
	}
	for i, s := range t.spans {
		b = append(b[:0], `{"ph":"X","name":`...)
		b = strconv.AppendQuote(b, t.names[s.name])
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(s.client+1), 10)
		b = append(b, `,"ts":`...)
		b = us(b, s.start)
		b = append(b, `,"dur":`...)
		b = us(b, s.end-s.start)
		b = append(b, `,"args":{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		if s.hit >= 0 {
			b = append(b, `,"hit":`...)
			b = strconv.AppendBool(b, s.hit == 1)
		}
		if s.host > 0 {
			b = append(b, `,"host_ns":`...)
			b = strconv.AppendInt(b, s.host, 10)
		}
		b = append(b, "}}"...)
		emit()
	}
	for _, s := range snaps {
		ids := make([]int, 0, len(s.nodes))
		for id := range s.nodes {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			n := s.nodes[id]
			b = fmt.Appendf(b[:0], `{"ph":"C","name":"mn%d","pid":1,"ts":%.3f,"args":{"reads":%d,"writes":%d,"cas":%d,"faa":%d,"rpcs":%d,"doorbells":%d,"nic_busy_ns":%d,"cpu_busy_ns":%d}}`,
				id, float64(s.at)/1e3, n.verbs.Reads, n.verbs.Writes, n.verbs.CASes, n.verbs.FAAs, n.verbs.RPCs,
				n.verbs.DoorbellBatches, n.nicBusy, n.cpuBusy)
			emit()
		}
		b = fmt.Appendf(b[:0], `{"ph":"C","name":"pool","pid":1,"ts":%.3f,"args":{"migrated_keys":%d,"promotions":%d,"spread_reads":%d,"used_bytes":%d}}`,
			float64(s.at)/1e3, s.migrated, s.promotions, s.spreadReads, s.usedBytes)
		emit()
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

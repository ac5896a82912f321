package main

import "ditto"

// cache is the slice of the public ditto API the client loops drive. The
// loops are written against it so that the same loop can also run
// against stubCache, which measures the loop's own cost.
type cache interface {
	get(dst, key []byte) ([]byte, bool)
	set(key, value []byte) error
	del(key []byte) bool
	mget(keys [][]byte) ([][]byte, []bool)
	mset(pairs []ditto.KV)
}

// single is a client of a one-node ditto.Cluster.
type single struct{ c *ditto.Client }

func (s single) get(dst, key []byte) ([]byte, bool)    { return s.c.GetAppend(dst, key) }
func (s single) set(key, value []byte) error           { s.c.Set(key, value); return nil }
func (s single) del(key []byte) bool                   { return s.c.Delete(key) }
func (s single) mget(keys [][]byte) ([][]byte, []bool) { return s.c.MGet(keys) }
func (s single) mset(pairs []ditto.KV)                 { s.c.MSet(pairs) }

// multi is a client of a ditto.MultiCluster.
type multi struct{ m *ditto.MultiClient }

func (m multi) get(_, key []byte) ([]byte, bool)      { return m.m.Get(key) }
func (m multi) set(key, value []byte) error           { return m.m.TrySet(key, value) }
func (m multi) del(key []byte) bool                   { return m.m.Delete(key) }
func (m multi) mget(keys [][]byte) ([][]byte, []bool) { return m.m.MGet(keys) }
func (m multi) mset(pairs []ditto.KV)                 { m.m.MSet(pairs) }

// stubCache answers every lookup with a well-formed value and stores
// nothing. It issues no verbs and never yields, so a loop driven against
// it costs only the loop itself.
type stubCache struct {
	vals [][]byte
	oks  []bool
}

func newStubCache(batch int) *stubCache {
	s := &stubCache{vals: make([][]byte, batch), oks: make([]bool, batch)}
	for i := range s.vals {
		s.vals[i] = make([]byte, valueLen)
	}
	return s
}

func (s *stubCache) get(dst, key []byte) ([]byte, bool) {
	return putValue(dst, keyIndex(key), 0), true
}
func (s *stubCache) set(key, value []byte) error { return nil }
func (s *stubCache) del(key []byte) bool         { return true }
func (s *stubCache) mget(keys [][]byte) ([][]byte, []bool) {
	for i, k := range keys {
		s.vals[i] = putValue(s.vals[i], keyIndex(k), 0)
		s.oks[i] = true
	}
	return s.vals[:len(keys)], s.oks[:len(keys)]
}
func (s *stubCache) mset(pairs []ditto.KV) {}

// keyIndex parses the index back out of a key written by putKey.
func keyIndex(key []byte) uint64 {
	var i uint64
	for _, c := range key[3:] {
		i = i*10 + uint64(c-'0')
	}
	return i
}

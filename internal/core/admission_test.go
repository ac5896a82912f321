package core

// Admission policy of the hot-key directory: with more promotion-eligible
// keys than directory slots, a full directory must stop swapping entries
// (every swap is an invalidation plus a materialization), yet still turn
// over to a new hot set once the workload moves.

import (
	"bytes"
	"math/rand"
	"testing"

	"ditto/internal/sim"
)

// admissionKeys is the size of each hot set the admission tests draw
// from: four times the directory's 16 slots, so far more keys pass the
// lifetime threshold than fit.
const admissionKeys = 64

// admissionCluster builds the 4-MN pool the admission tests share:
// factor-2 replication, promotion after 4 hits, 16 directory slots, and
// room for two hot sets (the base set and the one a shift moves to)
// with every replica copy.
func admissionCluster(seed int64) *MultiCluster {
	env := sim.NewEnv(seed)
	mc := NewMultiCluster(env, 4, hotOptions(4*2*admissionKeys))
	mc.EnableHotKeyReplication(2, 4, 16)
	return mc
}

// zipfGets issues n Gets drawn zipf(1.1) over the hot set starting at
// key base, failing the test on any miss (nothing is evicted).
func zipfGets(t *testing.T, m *MultiClient, z *rand.Zipf, base, n int) {
	for i := 0; i < n; i++ {
		k := base + int(z.Uint64())
		if v, ok := m.Get(key(k)); !ok || !bytes.Equal(v, value(k)) {
			t.Fatalf("get key %d: ok=%v, want its value", k, ok)
		}
	}
}

// TestAdmissionStationarySkewDoesNotThrash: under a stationary zipf-1.1
// workload over 64 keys and a 16-slot directory, admission-free
// promotion swaps entries on nearly every third Get (~7,000 promotions
// per 20k Gets after warm-up). With the TinyLFU admission rule the
// directory settles on the hottest keys: promotions drop by more than
// an order of magnitude, and the turned-away candidates show up as
// admission rejects instead.
func TestAdmissionStationarySkewDoesNotThrash(t *testing.T) {
	mc := admissionCluster(41)
	mc.Env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < admissionKeys; i++ {
			m.Set(key(i), value(i))
		}
		z := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, admissionKeys-1)
		zipfGets(t, m, z, 0, 5000) // warm-up: fill the directory
		if mc.hot.Len() != mc.hot.Limit() {
			t.Fatalf("directory holds %d of %d entries after warm-up", mc.hot.Len(), mc.hot.Limit())
		}
		promos, rejects := mc.Promotions, mc.AdmissionRejects
		zipfGets(t, m, z, 0, 20000)
		promos, rejects = mc.Promotions-promos, mc.AdmissionRejects-rejects
		t.Logf("per 20k Gets after warm-up: promotions=%d admission rejects=%d spread reads=%d",
			promos, rejects, mc.SpreadReads)
		if promos >= 200 {
			t.Errorf("promotions = %d per 20k Gets, want < 200: the full directory is thrashing", promos)
		}
		if rejects == 0 {
			t.Error("no admission rejects: the directory never turned a candidate away")
		}
	})
	mc.Env.Run()
}

// TestAdmissionFollowsHotSetShift: once the workload moves to a disjoint
// hot set, the sketch's periodic halving ages the old keys' estimates
// and the new keys outrank them, so the directory turns over. A policy
// comparing lifetime counts would keep the old set (LFU pollution).
func TestAdmissionFollowsHotSetShift(t *testing.T) {
	mc := admissionCluster(43)
	mc.Env.Go("c", func(p *sim.Proc) {
		m := mc.NewClient(p)
		for i := 0; i < 2*admissionKeys; i++ {
			m.Set(key(i), value(i))
		}
		z := rand.NewZipf(rand.New(rand.NewSource(9)), 1.1, 1, admissionKeys-1)
		zipfGets(t, m, z, 0, 20000)
		// newSetEntries counts directory entries holding keys of the
		// shifted-to set (keys admissionKeys..2*admissionKeys-1).
		newSetEntries := func() int {
			n := 0
			for _, k := range mc.hot.Keys() {
				if bytes.Compare(k, key(admissionKeys)) >= 0 {
					n++
				}
			}
			return n
		}
		if n := newSetEntries(); n != 0 {
			t.Fatalf("%d new-set entries before the shift", n)
		}
		zipfGets(t, m, z, admissionKeys, 2000)
		at2k := newSetEntries()
		zipfGets(t, m, z, admissionKeys, 3000)
		at5k := newSetEntries()
		t.Logf("new-set entries of %d: %d after 2k Gets, %d after 5k", mc.hot.Limit(), at2k, at5k)
		if at5k < 15 {
			t.Errorf("only %d of %d entries hold new-set keys 5k Gets after the shift, want >= 15",
				at5k, mc.hot.Limit())
		}
	})
	mc.Env.Run()
}

package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"ditto/internal/core"
	"ditto/internal/sim"
	"ditto/internal/stats"
	"ditto/internal/workload"
)

// tenantsRow is one measured configuration of the tenants scenario, as
// serialized into BENCH_tenants.json.
type tenantsRow struct {
	Config string `json:"config"` // "solo" | "noisy-no-quota" | "noisy-quota"

	// Victim (in-quota serving tenant) figures — the isolation headline.
	VictimMops     float64 `json:"victim_mops"`
	VictimGetP50Us float64 `json:"victim_get_p50_us"`
	VictimGetP99Us float64 `json:"victim_get_p99_us"`
	VictimHitRate  float64 `json:"victim_hit_rate"`
	// Degradation vs the solo baseline (0 for the baseline row): the
	// acceptance bar is < 0.10 on both under "noisy-quota".
	VictimP99Degradation     float64 `json:"victim_p99_degradation_vs_solo"`
	VictimHitRateDegradation float64 `json:"victim_hit_rate_degradation_vs_solo"`

	// Noisy (over-quota churn tenant) figures — what isolation costs it.
	NoisyMops    float64 `json:"noisy_mops"`
	NoisyHitRate float64 `json:"noisy_hit_rate"`
	NoisyShedOps int64   `json:"noisy_shed_ops"`

	// Accounting at end of run (block-rounded bytes).
	VictimUsageBytes int64 `json:"victim_usage_bytes"`
	NoisyUsageBytes  int64 `json:"noisy_usage_bytes"`
	Evictions        int64 `json:"evictions"`
}

// Tenants measures noisy-neighbor isolation under the multi-tenant
// policies: a read-heavy serving tenant (the "victim", comfortably
// inside its quota) shares one MN with a write-heavy churn tenant whose
// working set far exceeds its own quota. Three configurations run the
// same victim workload:
//
//   - solo: the victim alone (tenant mode armed, quotas set) — the
//     baseline for its Get p99 and hit rate.
//   - noisy-no-quota: the churn tenant joins with an unlimited quota —
//     the classic noisy neighbor. Global eviction policy treats both
//     tenants' objects alike, so churn pressure evicts the victim's
//     keys and its hit rate collapses.
//   - noisy-quota: the churn tenant joins with a binding quota. Quota
//     steering narrows every eviction sample to the over-quota tenant's
//     objects, and overload control sheds its batched writes while the
//     reclaimer is behind — the victim's p99 and hit rate must stay
//     within 10% of solo (the isolation acceptance bar).
func Tenants(w io.Writer, scale Scale) error {
	header(w, "Tenants: noisy-neighbor isolation — quotas + overload shedding")
	objects := scale.pick(2000, 8000)
	victimClients := scale.pick(4, 8)
	noisyClients := scale.pick(8, 16)
	opsEach := scale.pick(3000, 12000)

	configs := []struct {
		name  string
		noisy bool
		quota bool
	}{
		{"solo", false, true},
		{"noisy-no-quota", true, false},
		{"noisy-quota", true, true},
	}
	row(w, "config", "victim Mops", "get p50(us)", "get p99(us)", "hit rate", "noisy Mops", "shed ops")
	var rows []tenantsRow
	baseP99, baseHit := 0.0, 0.0
	for _, cfg := range configs {
		r := runTenants(objects, victimClients, noisyClients, opsEach, cfg.noisy, cfg.quota)
		if cfg.name == "solo" {
			baseP99, baseHit = r.VictimGetP99Us, r.VictimHitRate
		}
		if baseP99 > 0 {
			r.VictimP99Degradation = (r.VictimGetP99Us - baseP99) / baseP99
		}
		if baseHit > 0 {
			r.VictimHitRateDegradation = (baseHit - r.VictimHitRate) / baseHit
		}
		r.Config = cfg.name
		row(w, cfg.name, r.VictimMops, r.VictimGetP50Us, r.VictimGetP99Us, r.VictimHitRate,
			r.NoisyMops, r.NoisyShedOps)
		fmt.Fprintf(w, "  victim degradation vs solo: p99 %+.1f%%, hit rate %+.1f%%; usage victim %d B / noisy %d B, %d evictions\n",
			r.VictimP99Degradation*100, r.VictimHitRateDegradation*100,
			r.VictimUsageBytes, r.NoisyUsageBytes, r.Evictions)
		rows = append(rows, r)
	}
	return writeJSONSummary(w, map[string]interface{}{
		"scenario":       "tenants",
		"scale":          scale.String(),
		"objects":        objects,
		"victim_clients": victimClients,
		"noisy_clients":  noisyClients,
		"ops_each":       opsEach,
		"results":        rows,
	})
}

// runTenants runs one configuration: the victim tenant is preloaded and
// served read-heavy over a working set ~30% of capacity (inside its
// quota); when enabled, the noisy tenant churns write-heavy over a
// keyspace ~3x capacity, with a binding ~50%-of-capacity quota (quota
// true) or an unlimited one (quota false). Overload control is armed in
// every configuration; the noisy tenant issues part of its writes as
// TryMSet batches, the shape the shed policy gates.
func runTenants(objects, victimClients, noisyClients, opsEach int, noisy, quota bool) tenantsRow {
	env := sim.NewEnv(benchSeed(61))
	capBytes := int64(objects) * 320
	opts := core.DefaultOptions(objects, int(capBytes))
	cl := core.NewCluster(env, opts)
	cl.EnableBackgroundReclaim(0, 0)

	const victimTenant, noisyTenant = core.TenantID(1), core.TenantID(2)
	victimKeys := objects * 30 / 100
	// Victim quota: 60% of capacity, ~2x its working set — never binds.
	cl.SetTenantQuota(victimTenant, capBytes*60/100)
	if quota {
		// Noisy quota: half the pool — binds almost immediately under a
		// churn keyspace 3x capacity.
		cl.SetTenantQuota(noisyTenant, capBytes*50/100)
	} else {
		cl.SetTenantQuota(noisyTenant, 1<<40)
	}
	cl.EnableOverloadControl(200, 0)

	// Preload the victim's working set under its own tenant stamp.
	env.Go("loader", func(p *sim.Proc) {
		c := cl.NewClient(p)
		c.BindTenant(victimTenant)
		for i := 0; i < victimKeys; i++ {
			c.Set(workload.KeyBytes(uint64(i)), make([]byte, 240))
		}
	})
	env.Run()

	victim := Result{Hist: &stats.Histogram{}}
	noisyRes := Result{Hist: &stats.Histogram{}}
	var noisyStats, victimStats core.Stats
	start := env.Now()
	// Victim ops are light (reads, mostly hits) while the noisy churn's
	// Sets carry eviction work, so a fixed op count would let the victim
	// drain long before the churn peaks and measure no contention at
	// all. Victim clients instead serve at least opsEach ops AND as long
	// as any noisy client is still churning.
	noisyLeft := noisyClients
	if !noisy {
		noisyLeft = 0
	}
	for i := 0; i < victimClients; i++ {
		i := i
		env.Go("victim", func(p *sim.Proc) {
			c := cl.NewClient(p)
			c.BindTenant(victimTenant)
			rng := rand.New(rand.NewSource(int64(900 + i)))
			// Mild skew: the victim reads across its whole working set,
			// so evictions anywhere in it show up as misses — heavy skew
			// would hide the damage behind a few self-refreshing hot keys.
			next := zipfSampler(rng, 0.6, uint64(victimKeys))
			for n := 0; n < opsEach || noisyLeft > 0; n++ {
				k := workload.KeyBytes(next())
				t0 := p.Now()
				if rng.Intn(10) == 0 {
					c.Set(k, make([]byte, 240))
				} else if _, ok := c.Get(k); ok {
					victim.Hits++
				} else {
					victim.Misses++
				}
				victim.Hist.Record(p.Now() - t0)
				victim.Ops++
			}
			victimStats.Add(c.Stats)
		})
	}
	if noisy {
		// Churn keys live in a disjoint range far above the victim's.
		const noisyBase = 1 << 20
		keyspace := uint64(objects * 3)
		for i := 0; i < noisyClients; i++ {
			i := i
			env.Go("noisy", func(p *sim.Proc) {
				c := cl.NewClient(p)
				c.BindTenant(noisyTenant)
				rng := rand.New(rand.NewSource(int64(700 + i)))
				next := zipfSampler(rng, 0.8, keyspace)
				batch := make([]core.KV, 0, 8)
				for n := 0; n < opsEach; n++ {
					k := workload.KeyBytes(noisyBase + next())
					if n%64 == 63 {
						// Part of the churn arrives as doorbell-batched
						// multi-writes — the shape overload control gates.
						batch = batch[:0]
						for j := 0; j < 8; j++ {
							batch = append(batch, core.KV{
								Key: workload.KeyBytes(noisyBase + next()), Value: make([]byte, 240)})
						}
						if err := c.TryMSet(batch); err != nil && !errors.Is(err, core.ErrShed) {
							//dittolint:allow typederr (bench driver: any non-shed TryMSet error is a harness bug)
							panic(err)
						}
						noisyRes.Ops += 8
						continue
					}
					if rng.Intn(10) < 8 {
						c.Set(k, make([]byte, 240))
					} else if _, ok := c.Get(k); ok {
						noisyRes.Hits++
					} else {
						noisyRes.Misses++
					}
					noisyRes.Ops++
				}
				noisyStats.Add(c.Stats)
				noisyLeft--
			})
		}
	}
	env.Run()
	victim.ElapsedNs = env.Now() - start
	noisyRes.ElapsedNs = victim.ElapsedNs

	return tenantsRow{
		VictimMops:       victim.Mops(),
		VictimGetP50Us:   victim.P50(),
		VictimGetP99Us:   victim.P99(),
		VictimHitRate:    victim.HitRate(),
		NoisyMops:        noisyRes.Mops(),
		NoisyHitRate:     noisyRes.HitRate(),
		NoisyShedOps:     noisyStats.ShedOps,
		VictimUsageBytes: cl.TenantUsage(victimTenant),
		NoisyUsageBytes:  cl.TenantUsage(noisyTenant),
		Evictions:        victimStats.Evictions + noisyStats.Evictions + cl.ReclaimerStats().Evictions,
	}
}

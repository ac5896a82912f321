package main

import (
	"ditto"
	"ditto/internal/rdma"
	"ditto/internal/sim"
)

// Probes time one layer alone, in one sim process, by the CPU time the
// process spends.

const probeN = 200_000

// probeSim returns the host ns of one sim process switch: two processes
// alternately Sleep, each Sleep handing control to the scheduler and on
// to the other process.
func probeSim() float64 {
	env := sim.NewEnv(1)
	for i := 0; i < 2; i++ {
		env.Go("pingpong", func(p *sim.Proc) {
			for j := 0; j < probeN/2; j++ {
				p.Sleep(1)
			}
		})
	}
	c0 := cpuNs()
	env.Run()
	return float64(cpuNs()-c0) / probeN
}

// probeRdma returns the host ns of one synchronous 64-byte READ on a bare
// memory node.
func probeRdma() float64 {
	env := sim.NewEnv(1)
	node := rdma.NewNode(env, 1<<20, rdma.DefaultConfig())
	var ns int64
	env.Go("reader", func(p *sim.Proc) {
		ep := rdma.NewEndpoint(node, p)
		buf := make([]byte, 64)
		c0 := cpuNs()
		for j := 0; j < probeN; j++ {
			buf = ep.ReadInto(uint64(j%1024)*64, 64, buf[:0])
		}
		ns = cpuNs() - c0
	})
	env.Run()
	return float64(ns) / probeN
}

// probeBench runs sh's client loop against stubCache and returns the
// host ns and allocations of one request: the harness's own cost.
func probeBench(sh *shape, seed int64) (ns, allocs float64) {
	rec := &recorder{}
	rec.get.v = make([]int64, 0, probeN)
	rec.set.v = make([]int64, 0, probeN)
	rec.mget.v = make([]int64, 0, probeN)
	r := &rep{sh: sh, seed: seed, env: ditto.NewEnv(seed), rec: rec}
	r.pop = sh.popularity()
	rec.reset(0, 1, nil)
	v := newVclient(0, seed, sh)
	v.c = newStubCache(sh.batch)
	kinds := []bool{false}
	if sh.batchClients > 0 {
		kinds = append(kinds, true) // single-op and window loops, alike in requests
	}
	warm := probeN / 10
	r.env.Go("stub", func(p *ditto.Proc) {
		v.loop(r, p, false, 1, warm)
		m0, c0 := mallocs(), cpuNs()
		for _, batch := range kinds {
			n := probeN / len(kinds)
			if batch {
				n /= sh.batch
			}
			v.loop(r, p, batch, 1, n)
		}
		ns = float64(cpuNs() - c0)
		allocs = float64(mallocs() - m0)
	})
	r.env.Run()
	reqs := float64(rec.allRequests - int64(warm))
	return ns / reqs, allocs / reqs
}

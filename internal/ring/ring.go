// Package ring implements the consistent-hash ring that routes keys to
// memory nodes in a multi-MN Ditto deployment.
//
// The paper's multi-MN compatibility note (§5.1) hash-partitions the key
// space across memory nodes. A fixed modulo would reshuffle almost every
// key when the node count changes; the ring instead places each node at
// VirtualPoints pseudo-random points on a 64-bit circle and assigns a key
// to the first node point at or after the key's point. Adding a node then
// reassigns only the keys that land on the new node's arcs (~1/n of the
// key space), and removing a node reassigns only the removed node's keys
// — exactly the property live resharding needs so a scale-out migrates
// the minimum amount of cached data.
//
// Two unrelated notions of "replica" meet in this package, so the names
// keep them apart explicitly:
//
//   - VIRTUAL POINTS (VirtualPoints, DefaultVirtualPoints) are the
//     pseudo-random positions each node occupies on the circle — a load-
//     balancing device only. No data is stored per point.
//   - DATA REPLICAS are the additional memory nodes a hot key's value is
//     copied to by the replication layer (internal/core's hot-key
//     replication). OwnersN enumerates them: the R distinct ring-successor
//     nodes of a key, starting with its primary owner.
//
// Rings are immutable: With and Without return new rings, so a reshard
// can hold the old and new ring side by side and serve the forwarding
// window from both.
package ring

import (
	"slices"
	"sort"
)

// DefaultVirtualPoints is the number of virtual points per node. 128
// points keep the per-node load within roughly ±10% of even (relative
// imbalance shrinks with 1/sqrt(points)).
const DefaultVirtualPoints = 128

// point is one virtual node position on the circle.
type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over integer node IDs. All
// methods are read-only and safe to call concurrently; With and Without
// never modify the receiver, so a pointer to a Ring may be republished
// (e.g. swapped during a reshard) without invalidating concurrent
// lookups against the old value.
type Ring struct {
	points  []point // sorted by (hash, node)
	nodes   []int   // sorted member IDs
	perNode int     // virtual points per node
}

// New builds a ring with the given virtual-point count per node
// (DefaultVirtualPoints when points <= 0) and initial members. The
// point count is fixed for the ring's lifetime and inherited by every
// ring derived from it with With/Without.
func New(points int, nodes ...int) *Ring {
	if points <= 0 {
		points = DefaultVirtualPoints
	}
	r := &Ring{perNode: points}
	for _, n := range nodes {
		r = r.With(n)
	}
	return r
}

// VirtualPoints returns the virtual-point count per node — the circle-
// placement granularity, NOT the data-replication factor (that is the
// caller's R in OwnersN; see the package comment).
func (r *Ring) VirtualPoints() int { return r.perNode }

// Nodes returns the member IDs in ascending order. The caller must not
// modify the returned slice (it aliases the ring's internal state).
func (r *Ring) Nodes() []int { return r.nodes }

// NumNodes returns the member count.
func (r *Ring) NumNodes() int { return len(r.nodes) }

// Has reports whether node is a member.
func (r *Ring) Has(node int) bool {
	i := sort.SearchInts(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// With returns a new ring that additionally contains node; the receiver
// is unchanged (rings are immutable). Adding an existing member returns
// the receiver itself. Key assignments under the new ring differ from
// the receiver's only for keys that now map to the added node.
func (r *Ring) With(node int) *Ring {
	if r.Has(node) {
		return r
	}
	nr := &Ring{
		perNode: r.perNode,
		points:  make([]point, 0, len(r.points)+r.perNode),
		nodes:   make([]int, 0, len(r.nodes)+1),
	}
	nr.nodes = append(nr.nodes, r.nodes...)
	nr.nodes = append(nr.nodes, node)
	sort.Ints(nr.nodes)
	nr.points = append(nr.points, r.points...)
	for rep := 0; rep < r.perNode; rep++ {
		nr.points = append(nr.points, point{hash: pointHash(node, rep), node: node})
	}
	sort.Slice(nr.points, func(i, j int) bool {
		if nr.points[i].hash != nr.points[j].hash {
			return nr.points[i].hash < nr.points[j].hash
		}
		return nr.points[i].node < nr.points[j].node
	})
	return nr
}

// Without returns a new ring that no longer contains node; the receiver
// is unchanged (rings are immutable). Removing a non-member returns the
// receiver itself. Key assignments under the new ring differ from the
// receiver's only for keys the removed node owned.
func (r *Ring) Without(node int) *Ring {
	if !r.Has(node) {
		return r
	}
	nr := &Ring{
		perNode: r.perNode,
		points:  make([]point, 0, len(r.points)-r.perNode),
		nodes:   make([]int, 0, len(r.nodes)-1),
	}
	for _, n := range r.nodes {
		if n != node {
			nr.nodes = append(nr.nodes, n)
		}
	}
	for _, pt := range r.points {
		if pt.node != node {
			nr.points = append(nr.points, pt)
		}
	}
	return nr
}

// Owner returns the node owning the given key point (see Point): the
// node of the first virtual point at or after keyPoint on the circle.
// Owner(k) == OwnersN(k, 1)[0] for every key. It panics on an empty
// ring.
func (r *Ring) Owner(keyPoint uint64) int {
	if len(r.points) == 0 {
		panic("ring: Owner on empty ring")
	}
	return r.points[r.search(keyPoint)].node
}

// OwnersN returns the first n DISTINCT nodes encountered walking the
// circle clockwise from keyPoint — the key's primary owner followed by
// its ring-successor nodes, the node set the hot-key replication layer
// materializes data replicas on. Invariants:
//
//   - The result has min(n, NumNodes) distinct members; OwnersN(k, 1)
//     is exactly [Owner(k)].
//   - Prefix-stable in n: OwnersN(k, n) is a prefix of OwnersN(k, n+1).
//   - Minimal change across membership: for r2 = r.With(x), deleting x
//     (if present) from r2.OwnersN(k, n) leaves a prefix of
//     r.OwnersN(k, n) — existing successors never reorder, the new node
//     only splices in; symmetrically for Without.
//
// It panics on an empty ring.
func (r *Ring) OwnersN(keyPoint uint64, n int) []int { return r.AppendOwnersN(nil, keyPoint, n) }

// AppendOwnersN appends OwnersN(keyPoint, n) to dst and returns the
// extended slice; with enough capacity in dst it allocates nothing,
// which lets per-hit callers reuse one scratch slice.
func (r *Ring) AppendOwnersN(dst []int, keyPoint uint64, n int) []int {
	if len(r.points) == 0 {
		panic("ring: OwnersN on empty ring")
	}
	n = min(n, len(r.nodes))
	base := len(dst)
	start := r.search(keyPoint)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !slices.Contains(dst[base:], node) {
			dst = append(dst, node)
		}
	}
	return dst
}

// search returns the index of the first virtual point at or after
// keyPoint, wrapping to 0 past the top of the circle.
func (r *Ring) search(keyPoint uint64) int {
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= keyPoint
	})
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return i
}

// Point maps a key hash onto the circle. The table's FNV hash is too
// regular in its high bits for short keys, so it is remixed with the
// splitmix64 finalizer before placement; this also decorrelates ring
// position from the hash-table bucket choice within a node.
func Point(keyHash uint64) uint64 { return mix(keyHash) }

// pointHash positions virtual point rep of a node on the circle.
func pointHash(node, rep int) uint64 {
	return mix(uint64(node)<<32 | uint64(uint32(rep)) ^ 0xD1B54A32D192ED03)
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

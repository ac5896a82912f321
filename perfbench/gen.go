package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
)

// Inputs are generated here, from the run's seed, and handed to the cache
// only as key and value bytes.

const (
	keyLen   = 12  // "pb:" + 9 decimal digits
	valueLen = 256 // every stored value
)

// putKey writes the key of index i into dst (len keyLen) without
// allocating.
func putKey(dst []byte, i uint64) []byte {
	dst = dst[:keyLen]
	copy(dst, "pb:")
	for j := keyLen - 1; j >= 3; j-- {
		dst[j] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// mix is the splitmix64 finalizer, used for value filler and checksums.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Value layout: key index (8 B), version (8 B), filler derived from both,
// and a checksum of everything before it in the last 8 bytes.
const sumOff = valueLen - 8

// putValue encodes the value for key index k at version ver into dst
// (len valueLen) without allocating.
func putValue(dst []byte, k, ver uint64) []byte {
	dst = dst[:valueLen]
	binary.LittleEndian.PutUint64(dst[0:], k)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	seed := mix(k ^ ver<<20)
	for off := 16; off < sumOff; off += 8 {
		seed = mix(seed + uint64(off))
		binary.LittleEndian.PutUint64(dst[off:], seed)
	}
	binary.LittleEndian.PutUint64(dst[sumOff:], checksum(dst[:sumOff]))
	return dst
}

func checksum(b []byte) uint64 {
	h := uint64(len(b))
	for off := 0; off+8 <= len(b); off += 8 {
		h = mix(h ^ binary.LittleEndian.Uint64(b[off:]))
	}
	return h
}

// checkValue reports whether v is an intact value written for key index k.
func checkValue(v []byte, k uint64) bool {
	return len(v) == valueLen &&
		binary.LittleEndian.Uint64(v[0:]) == k &&
		binary.LittleEndian.Uint64(v[sumOff:]) == checksum(v[:sumOff])
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^theta from a cumulative
// table; sampling is a binary search and allocates nothing.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) next(rng *rand.Rand) uint64 {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return uint64(i)
}

// scatter maps a popularity rank to a key index, so that hot ranks are
// spread over the key space rather than packed at its start. It is a
// bijection on [0, n) for n coprime with the multiplier.
func scatter(rank uint64, n int) uint64 {
	return (rank*2654435761 + 12345) % uint64(n)
}

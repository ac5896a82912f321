package hotset

import (
	"math"
	"math/bits"
)

// sketchDepth is the number of count-min rows. A key's estimate is the
// minimum of its counters across rows, so a few rows already make an
// over-estimate from hash collisions unlikely.
const sketchDepth = 4

// sketchSeeds are the fixed odd multipliers of the rows' multiply-shift
// hashes. They are constants, not drawn from an RNG, so the sketch's
// estimates — and therefore every admission decision — are identical
// across runs of the same simulation seed.
var sketchSeeds = [sketchDepth]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

// sketch is TinyLFU's approximate frequency histogram (Einziger,
// Friedman & Manes, https://arxiv.org/abs/1512.00727): a count-min
// sketch of uint16 counters over key hashes, aged by periodic halving.
// Every recorded sample increments the key's counter in each row
// (saturating at the uint16 maximum); once window samples have been
// recorded, every counter and the sample count are halved, so the
// estimates track recent frequency instead of lifetime counts — a key
// that stops being read loses its standing within a few windows.
type sketch struct {
	rows    [sketchDepth][]uint16
	shift   uint   // 64 - log2(width): multiply-shift keeps the top bits
	samples uint64 // samples recorded since the last halving (after it: half)
	window  uint64 // W: the sample count that triggers a halving
}

// newSketch sizes a sketch for a directory of limit entries: width
// nextPow2(8×limit) counters per row, halving every window samples.
func newSketch(limit int, window uint64) *sketch {
	width := 1 << bits.Len(uint(8*limit-1))
	s := &sketch{shift: uint(64 - bits.Len(uint(width-1))), window: window}
	for i := range s.rows {
		s.rows[i] = make([]uint16, width)
	}
	return s
}

// index maps a key hash to its counter in row i. KeyHash is FNV-1a,
// whose high bits are well mixed; a per-row odd multiplier and the top
// log2(width) bits of the product give each row an independent slot.
func (s *sketch) index(kh uint64, i int) uint64 { return (kh * sketchSeeds[i]) >> s.shift }

// record counts one sample of the key with hash kh.
func (s *sketch) record(kh uint64) {
	for i := range s.rows {
		if c := &s.rows[i][s.index(kh, i)]; *c < math.MaxUint16 {
			*c++
		}
	}
	if s.samples++; s.samples >= s.window {
		s.halve()
	}
}

// halve ages the sketch: every counter and the sample count are divided
// by two, as TinyLFU's reset operation prescribes.
func (s *sketch) halve() {
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] >>= 1
		}
	}
	s.samples /= 2
}

// estimate returns the key's approximate recent frequency: the minimum
// of its counters, which never under-counts between halvings.
func (s *sketch) estimate(kh uint64) uint16 {
	est := uint16(math.MaxUint16)
	for i := range s.rows {
		est = min(est, s.rows[i][s.index(kh, i)])
	}
	return est
}

//go:build race

package core

import "testing"

// The race detector instruments every allocation, inflating the counts
// the !race twin (allocs_test.go) asserts on — skip under -race.
func TestAllocsPerOpSteadyState(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

func TestAllocsPerOpSteadyStateSpecGet(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

func TestAllocsPerOpSteadyStateReplicatedSet(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

func TestAllocsPerOpSteadyStateHotCandidateGet(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

//go:build race

package hotset

import "testing"

// The race detector instruments every allocation, inflating the counts
// the !race twin (allocs_test.go) asserts on — skip under -race.
func TestAllocsPerOpSteadyStateGate(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

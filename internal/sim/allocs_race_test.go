//go:build race

package sim

import "testing"

// The race detector instruments every allocation, inflating the counts
// the !race twin (allocs_test.go) asserts on — skip under -race.
func TestAllocsPerOpSteadyStateSwitch(t *testing.T) {
	t.Skip("alloc counts are not meaningful under -race")
}

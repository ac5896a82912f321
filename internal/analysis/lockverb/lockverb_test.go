package lockverb_test

import (
	"testing"

	"ditto/internal/analysis"
	"ditto/internal/analysis/lockverb"
)

// TestFixture runs lockverb over its testdata package: verbs and
// executor entry points issued while a sync mutex is held (directly or
// via defer Unlock) are flagged; release-before-issue is not.
func TestFixture(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	analysis.RunFixture(t, l, lockverb.Analyzer, "../testdata/lockverb", "ditto/internal/lockverbfixture")
}

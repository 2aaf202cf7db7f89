package determinism_test

import (
	"testing"

	"ubscache/internal/analysis/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "determinism", "testdata/mod")
}

// TestWallclockTaint covers the clock rule's flow tracking in the
// orchestration layers: clock values reaching //ubs:artifact and
// //ubs:state fields, the snap codec, or published stats counters.
func TestWallclockTaint(t *testing.T) {
	linttest.Run(t, "determinism", "testdata/clock")
}

package bench

import (
	"testing"

	"vmprim/internal/testutil"
)

// TestRunnersCloseMachines: an experiment runner must close every
// machine it creates, including each one of a sweep over machine
// sizes, so repeated passes over the tables hold no worker goroutines.
func TestRunnersCloseMachines(t *testing.T) {
	for _, run := range []func() (*Table, error){F1Speedup, A1Ports} {
		before := testutil.Snapshot()
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		testutil.CheckLeaks(t, before)
	}
}

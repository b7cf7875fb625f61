package gpu

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sm"
)

// TestRunStartsNoGoroutines pins the single-threaded engine: with cores
// to spare and default Options, a run steps every SM on the calling
// goroutine, so the goroutine count never rises above its value before
// Run. Scaling comes from running independent simulations side by side.
func TestRunStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	peak, cycles := before, 0
	hook := func(int64, []*sm.SM) {
		cycles++
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	const ctas, block = 8, 64
	if _, err := Run(vecAddLaunch(t, ctas, block), config.Small(), Options{
		InitMemory: initVec(ctas * block),
		FaultHook:  hook,
	}); err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("fault hook never ran")
	}
	if peak > before {
		t.Fatalf("goroutines rose from %d to %d during the run", before, peak)
	}
}

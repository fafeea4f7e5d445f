package codec

import (
	"runtime"
	"sync"
	"testing"
)

// The byte budget is a hard envelope: the downlink scheduler multiplies γ by
// the ROI pixel count and hands the codec exactly that many bytes, so any
// overshoot silently inflates every downlink figure. The rate controller
// accounts for the header, the layer table and the arithmetic coder's flush
// tail per symbol, so the emitted codestream never exceeds the budget.

// TestBudgetExact asserts len(out) <= BudgetBytes for budgets down to 64
// bytes across content types and geometries.
func TestBudgetExact(t *testing.T) {
	shapes := []struct{ w, h int }{{64, 64}, {128, 128}, {37, 23}, {256, 64}}
	for _, sh := range shapes {
		for _, budget := range []int{64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096} {
			for seed := uint64(1); seed <= 3; seed++ {
				plane := testPlane(seed, sh.w, sh.h)
				opt := DefaultOptions()
				opt.BudgetBytes = budget
				data, err := EncodePlane(plane, sh.w, sh.h, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) > budget {
					t.Fatalf("%dx%d seed %d: budget %d produced %d bytes",
						sh.w, sh.h, seed, budget, len(data))
				}
				// Whatever survived the truncation must still decode.
				if _, _, _, err := DecodePlane(data, 0); err != nil {
					t.Fatalf("%dx%d budget %d: decoding truncated stream: %v",
						sh.w, sh.h, budget, err)
				}
			}
		}
	}
}

// TestBudgetUsesMostOfTheBudget guards against the controller becoming so
// conservative it wastes the envelope: at workable budgets the stream should
// land within a few dozen bytes of the target.
func TestBudgetUsesMostOfTheBudget(t *testing.T) {
	plane := testPlane(4, 128, 128)
	for _, budget := range []int{512, 1024, 4096} {
		opt := DefaultOptions()
		opt.BudgetBytes = budget
		data, err := EncodePlane(plane, 128, 128, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < budget-64 {
			t.Fatalf("budget %d only filled %d bytes", budget, len(data))
		}
	}
}

// TestParallelEncodeMatchesSerial: the worker pool must not change a single
// output byte, only the wall-clock.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	plane := testPlane(21, 96, 96)
	opt := DefaultOptions()
	opt.BudgetBytes = 2048

	serial, err := EncodePlane(plane, 96, 96, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]byte, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := EncodePlane(plane, 96, 96, opt)
			if err == nil {
				results[i] = data
			}
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got == nil {
			t.Fatalf("concurrent encode %d failed", i)
		}
		if string(got) != string(serial) {
			t.Fatalf("concurrent encode %d differs from serial", i)
		}
	}
}

// TestWorkers pins the parallelism resolution rules.
func TestWorkers(t *testing.T) {
	if got := Workers(3, 8); got != 3 {
		t.Fatalf("Workers(3, 8) = %d, want 3", got)
	}
	if got := Workers(16, 4); got != 4 {
		t.Fatalf("Workers(16, 4) = %d, want clamp to 4 tasks", got)
	}
	if got, want := Workers(0, 64), min(runtime.GOMAXPROCS(0), 64); got != want {
		t.Fatalf("Workers(0, 64) = %d, want GOMAXPROCS-bound %d", got, want)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Fatalf("Workers must be at least 1, got %d", got)
	}
}

// TestParallelBandsCoversAllIndices exercises the pool across widths.
func TestParallelBandsCoversAllIndices(t *testing.T) {
	for _, par := range []int{1, 2, 7} {
		const n = 23
		hits := make([]int32, n)
		var mu sync.Mutex
		ParallelBands(par, n, func(b int) {
			mu.Lock()
			hits[b]++
			mu.Unlock()
		})
		for b, c := range hits {
			if c != 1 {
				t.Fatalf("par %d: index %d visited %d times", par, b, c)
			}
		}
	}
}

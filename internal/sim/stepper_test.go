package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rmcc/internal/mem/vm"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// TestCountersMatchResult: at several points along a seeded canneal
// stream, Counters is Result without the Figure-15 coverage scan — every
// other field equal — and in rmcc mode it allocates nothing, so the scan
// cannot creep back into the per-request service roll-up.
func TestCountersMatchResult(t *testing.T) {
	for _, mode := range []engine.Mode{engine.NonSecure, engine.Baseline, engine.RMCC} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			w, ok := workload.ByName(workload.SizeTest, 5, "canneal")
			if !ok {
				t.Fatal("no canneal workload")
			}
			cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(mode, counter.Morphable, 0))
			cfg.Seed = 5
			lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := sim.NewAccessStream(func(sink workload.Sink) { w.Run(cfg.Seed, sink) })
			defer st.Close()
			var res sim.LifetimeResult
			for _, at := range []uint64{0, 1, 2_500, 10_000, 30_000} {
				for lt.Accesses() < at {
					a, ok := st.Next()
					if !ok {
						t.Fatal("stream exhausted")
					}
					lt.Step(a)
				}
				res = lt.Result()
				want := res
				want.CoveragePerValue = 0
				if got := lt.Counters(); !reflect.DeepEqual(got, want) {
					t.Fatalf("at %d accesses: Counters differs from Result without coverage:\ngot:  %+v\nwant: %+v",
						at, got, want)
				}
			}
			if mode != engine.RMCC {
				return
			}
			// The zeroed field is the one that costs: rmcc mode has a live
			// table, so Result's scan found coverage to report.
			if res.CoveragePerValue == 0 {
				t.Fatal("rmcc Result reports no coverage; the comparison above proves nothing")
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = lt.Counters() }); allocs != 0 {
				t.Errorf("Counters allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestStepOutOfMemoryChangesNothing: an access to a new page when every
// physical page is mapped is an ErrOutOfMemory, and the stepper's state,
// snapshot bytes included, is as if the access never came.
func TestStepOutOfMemoryChangesNothing(t *testing.T) {
	cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(engine.RMCC, counter.Morphable, 0))
	// 1 MiB of footprint gets 18 MiB of physical memory: nine 2 MiB pages.
	lt, err := sim.NewLifetimeChecked("oom", 1<<20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	save := func() []byte {
		var buf bytes.Buffer
		if err := lt.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := uint64(0); i < 9; i++ {
		if err := lt.Step(workload.Access{Addr: i << 30, Write: true}); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	before := save()
	if err := lt.Step(workload.Access{Addr: 9 << 30, Write: true}); !errors.Is(err, vm.ErrOutOfMemory) {
		t.Fatalf("tenth page: err = %v, want ErrOutOfMemory", err)
	}
	if lt.Accesses() != 9 || !bytes.Equal(save(), before) {
		t.Fatalf("the refused access changed the stepper: %d accesses", lt.Accesses())
	}
	if err := lt.Step(workload.Access{Addr: 5}); err != nil {
		t.Fatalf("mapped page after the refusal: %v", err)
	}
}

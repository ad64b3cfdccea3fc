// Command perfbench is the repository benchmark: it drives the RMCC
// simulator through two user-facing paths (a warm lifetime simulation and
// replay through the rmccd service over loopback HTTP), checks their
// outputs, and prints one JSON result line.
//
//	go run . --workload lifetime-canneal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-runs the same loop with spans around every layer call and reports
// the per-layer metrics instead. See README.md for the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"
)

// runner is one workload's live state between set-up and verification.
type runner interface {
	// warm runs untimed requests so caches and tables reach steady state.
	warm() error
	// request runs one closed-loop request. It returns the simulated CPU
	// accesses covered and the duration of the user-visible call alone
	// (correctness and tracing work done around it is excluded). tr is
	// nil outside the traced run.
	request(tr *obs.SpanTracer, parent uint64) (accesses int, call time.Duration, err error)
	// classes is how many kinds of request the run cycles through: request
	// i is of kind i mod classes, and requests of one kind do equal work.
	classes() int
	// verify checks the program's outputs after the measured loop.
	verify() error
	// pinned returns the simulated results the reference run digests.
	pinned() any
	// engineStats returns the controller statistics behind the per-layer
	// rates and the CPU accesses they cover.
	engineStats() (engine.Stats, uint64)
	// heapBytes returns the live heap the simulator holds for the
	// workload. It may release that state: call it last.
	heapBytes() (uint64, error)
	close()
}

// layerSource is implemented by a runner whose layer times come from the
// program rather than from the benchmark's workload and engine spans. It
// returns the traced run's time in the access generator, the accesses
// generated in that time, and the engine layer's time over the measured
// loop.
type layerSource interface {
	layerTimes() (gen time.Duration, genAcc int, eng time.Duration, err error)
}

type workloadDef struct {
	name string
	// setupReps is how many times a run builds the workload from scratch:
	// the median build time is setup_s and the last build is measured.
	setupReps int
	setup     func(seed uint64, traced bool) (runner, error)
}

// A lifetime set-up takes ~15-25 ms, so it is repeated often enough to
// span a few seconds of host time, over which the shared host's speed
// swings; a replay set-up generates a scale-20 graph (~3 s).
var workloads = []workloadDef{
	{"lifetime-canneal", 400, setupLifetime},
	{"replay-pageRank", 3, setupReplay},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	printPins := flag.Bool("print-pinned", false, "print every workload's reference digest (to update pinned.go) and exit")
	flag.Parse()
	// One client drives a closed loop, so one P runs it. With a second P
	// the runtime's idle spinning and the stream generator's goroutine run
	// on the other vCPU beside the measured call; on a shared 2-vCPU host
	// that made calls ~10-15% slower at the low quantiles and noisier.
	runtime.GOMAXPROCS(1)
	var err error
	if *printPins {
		err = printPinned()
	} else {
		err = run(*name, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workloadDef, error) {
	for _, def := range workloads {
		if def.name == name {
			return def, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed uint64, seconds int, traced bool) error {
	def, err := lookup(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	res, err := measure(def, seed, seconds, traced)
	if err != nil {
		return err
	}
	// measure checks this seed's outputs for consistency; the reference
	// run pins the simulated values themselves.
	if err := checkPinned(def); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference run:", err)
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure sets the workload up, warms it, runs the closed loop for the
// given time and verifies the outputs.
func measure(def workloadDef, seed uint64, seconds int, traced bool) (result, error) {
	var r runner
	var err error
	setups := make([]float64, 0, def.setupReps)
	for i := 0; i < def.setupReps; i++ {
		if r != nil {
			r.close()
			r = nil // let the GC below free the previous build
		}
		runtime.GC()
		start := time.Now()
		if r, err = def.setup(seed, traced); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	if err := r.warm(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	var tr *obs.SpanTracer
	var hists map[string]*obs.Histogram
	if traced {
		tr, hists = newSpanTracer()
	}
	// Call times in ns by request kind, and the accesses one request of
	// each kind covers.
	callNS := make([][]float64, r.classes())
	classAcc := make([]int, r.classes())
	attempted, failed := 0, 0
	var callTotal time.Duration
	var accTotal int
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for ; time.Now().Before(deadline); attempted++ {
		sp := tr.Start(spanRequest, "", 0)
		n, call, err := r.request(tr, sp.ID())
		sp.End()
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
			continue
		}
		k := attempted % len(callNS)
		callNS[k] = append(callNS[k], float64(call.Nanoseconds()))
		classAcc[k] = n
		callTotal += call
		accTotal += n
	}

	res := result{Correct: failed == 0 && accTotal > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if err := r.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", err)
		res.Correct = false
	}
	if traced {
		stage := func(name string) time.Duration { return time.Duration(hists[name].Sum()) * time.Microsecond }
		if err := layerMetrics(res.Metrics, r, stage, callTotal, accTotal); err != nil {
			return result{}, err
		}
		if err := writeSpans(fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", def.name, seed), tr.Spans()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span file not written:", err)
		}
		return res, nil
	}
	heap, err := r.heapBytes()
	if err != nil {
		return result{}, fmt.Errorf("heap: %w", err)
	}
	res.Metrics["access_ns"] = metric{accessNS(callNS, classAcc), "ns"}
	res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	res.Metrics["heap_mb"] = metric{float64(heap) / 1e6, "MB"}
	return res, nil
}

// minMemoHitRate is the lowest memoization hit rate on counter misses an
// untampered run of either workload reaches.
const minMemoHitRate = 0.5

// checkEngine applies the invariants every untampered rmcc-mode run must
// hold: no integrity or decryption failures, counter-cache lookups that
// account for every request, and a memoization hit rate on counter
// misses of at least minMemoHitRate.
func checkEngine(st engine.Stats, accesses uint64) error {
	switch {
	case accesses == 0:
		return errors.New("no accesses simulated")
	case st.IntegrityFailures != 0 || st.DecryptMismatches != 0:
		return fmt.Errorf("integrity failures %d, decrypt mismatches %d", st.IntegrityFailures, st.DecryptMismatches)
	case st.CtrL0Hits+st.CtrL0Misses != st.Reads+st.Writes:
		return fmt.Errorf("counter-cache lookups %d != controller requests %d", st.CtrL0Hits+st.CtrL0Misses, st.Reads+st.Writes)
	case st.L0MemoGroupHitsOnMiss+st.L0MemoMRUHitsOnMiss > st.L0MemoLookupsOnMiss:
		return errors.New("more memoization hits than lookups")
	case st.AcceleratedMisses > st.CtrL0ReadMisses:
		return errors.New("more accelerated misses than read counter misses")
	case st.MemoHitRateOnMisses() < minMemoHitRate:
		return fmt.Errorf("memoization hit rate on counter misses %.3f below %.2f", st.MemoHitRateOnMisses(), minMemoHitRate)
	}
	return nil
}

// accessNS is host time per simulated access over one pass through every
// request kind, each kind costed at the callQuantile of its call times.
func accessNS(callNS [][]float64, classAcc []int) float64 {
	var ns float64
	var acc int
	for k, xs := range callNS {
		if len(xs) > 0 {
			ns += quantile(xs, callQuantile)
			acc += classAcc[k]
		}
	}
	if acc == 0 {
		return 0
	}
	return ns / float64(acc)
}

// callQuantile is the quantile of a request kind's call times that
// accessNS takes. Co-tenants on a shared host only ever add time: their
// memory traffic slows the simulator ~1.6x in spells from a fraction of a
// second to tens of seconds, which can cover all but a few per cent of a
// run. Calls are short against those spells and number in the dozens to
// thousands per kind, so a low quantile keeps the uncontended cost while
// one lucky call cannot set it.
const callQuantile = 0.02

// layerMetrics turns the traced run's stage times and counters into the
// per-layer metrics. Times are host nanoseconds per simulated CPU access:
// engine_ns and driver_ns add up to the mean traced call time, and
// workload_ns is the generator's time per access it generated.
func layerMetrics(m map[string]metric, r runner, stage func(string) time.Duration, callTotal time.Duration, accTotal int) error {
	gen, genAcc, eng := stage(spanWorkload), accTotal, stage(spanEngine)
	if ls, ok := r.(layerSource); ok {
		var err error
		if gen, genAcc, eng, err = ls.layerTimes(); err != nil {
			return err
		}
	}
	acc := float64(max(accTotal, 1))
	st, stAcc := r.engineStats()
	m["workload_ns"] = metric{float64(gen) / float64(max(genAcc, 1)), "ns"}
	m["engine_ns"] = metric{float64(eng) / acc, "ns"}
	m["driver_ns"] = metric{float64(callTotal-eng) / acc, "ns"}
	m["mc_ops_per_kacc"] = metric{1000 * float64(st.Reads+st.Writes) / float64(max(stAcc, 1)), "1/kacc"}
	m["ctr_miss_rate"] = metric{st.CtrMissRate(), "ratio"}
	m["memo_hit_rate"] = metric{st.MemoHitRateOnMisses(), "ratio"}
	return nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta is the live heap before release minus the live heap after it:
// what the released state held.
func heapDelta(release func() error) (uint64, error) {
	before := liveHeap()
	if err := release(); err != nil {
		return 0, err
	}
	after := liveHeap()
	if after >= before {
		return 0, fmt.Errorf("releasing the simulator freed no heap (%d -> %d bytes)", before, after)
	}
	return before - after, nil
}

// quantile returns the q-quantile of xs (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return obs.QuantileSorted(s, q)
}

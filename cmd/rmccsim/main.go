// Command rmccsim runs one secure-memory simulation: a workload, a counter
// scheme, a protection mode, and a driver (lifetime or detailed), printing
// the result summary.
//
// Examples:
//
//	rmccsim -workload canneal -mode rmcc -driver lifetime -accesses 5000000
//	rmccsim -workload pageRank -mode baseline -scheme sc64 -driver detailed
//	rmccsim -cpuprofile cpu.out -workload BFS -driver detailed
//	rmccsim -list
//
// See docs/PERFORMANCE.md for the profiling workflow (-cpuprofile,
// -memprofile, -pprof).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rmcc"
	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

func main() {
	var (
		name       = flag.String("workload", "canneal", "workload name (see -list)")
		list       = flag.Bool("list", false, "list workloads and exit")
		sizeStr    = flag.String("size", "small", "workload scale: test|small|full")
		modeStr    = flag.String("mode", "rmcc", "protection: nonsecure|baseline|rmcc")
		schemeStr  = flag.String("scheme", "morphable", "counters: sgx|sc64|morphable")
		driver     = flag.String("driver", "lifetime", "simulation driver: lifetime|detailed")
		accesses   = flag.Uint64("accesses", 5_000_000, "lifetime accesses / detailed window")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		aesNS      = flag.Int64("aes", 15, "AES latency in ns (detailed driver)")
		cores      = flag.Int("cores", 1, "cores (detailed driver; graph kernels shard)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		metricsOut  = flag.String("metrics-out", "", "write run metrics to this file (.json for JSON, else Prometheus text; - for stdout)")
		traceOut    = flag.String("trace-out", "", "write the per-access event trace (JSON Lines) to this file (- for stdout)")
		traceCap    = flag.Int("trace-cap", obs.DefaultTracerCap, "event-trace ring capacity (newest N events retained)")
		manifestOut = flag.String("manifest-out", "", "write the run manifest (JSON) to this file")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmccsim"))
		return
	}

	if *list {
		fmt.Println(strings.Join(rmcc.WorkloadNames(), "\n"))
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rmccsim: pprof server: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rmccsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rmccsim:", err)
			}
		}()
	}

	size, err := workload.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	mode, err := engine.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	scheme, err := counter.ParseScheme(*schemeStr)
	if err != nil {
		fatal(err)
	}
	w, ok := rmcc.WorkloadByName(size, *seed, *name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (use -list)", *name))
	}

	// Observability: one registry/tracer per run, attached through the
	// driver config and exported after the run completes.
	var (
		reg *obs.Registry
		tr  *obs.Tracer
	)
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if *traceOut != "" {
		tr = obs.NewTracer(*traceCap)
	}
	manifest := obs.NewManifest("rmccsim", map[string]any{
		"workload": *name, "size": *sizeStr, "mode": *modeStr,
		"scheme": *schemeStr, "driver": *driver, "accesses": *accesses,
		"aes_ns": *aesNS, "cores": *cores,
	})
	manifest.Seed = *seed
	manifest.GoMaxProcs = runtime.GOMAXPROCS(0)
	manifest.Notes["workload"] = *name
	manifest.Notes["driver"] = *driver
	manifest.Notes["mode"] = *modeStr
	manifest.Notes["scheme"] = *schemeStr
	started := time.Now()
	manifest.Started = started.UTC().Format(time.RFC3339)

	engCfg := rmcc.DefaultEngineConfig(mode, scheme)
	switch *driver {
	case "lifetime":
		cfg := rmcc.DefaultLifetimeConfig(engCfg)
		cfg.MaxAccesses = *accesses
		cfg.Seed = *seed
		cfg.Metrics = reg
		cfg.Tracer = tr
		res := rmcc.RunLifetime(w, cfg)
		printLifetime(res)
		e := res.Engine
		manifest.Headline["accesses"] = float64(res.Accesses)
		manifest.Headline["ctr_miss_rate"] = e.CtrMissRate()
		manifest.Headline["memo_hit_rate_on_misses"] = e.MemoHitRateOnMisses()
		manifest.Headline["memo_hit_rate_all"] = e.MemoHitRateAll()
		manifest.Headline["accelerated_rate"] = e.AcceleratedRate()
		manifest.Headline["total_traffic_blocks"] = float64(e.TotalTraffic())
		manifest.Headline["max_counter"] = float64(res.MaxCounter)
	case "detailed":
		cfg := rmcc.DefaultDetailedConfig(engCfg)
		cfg.Seed = *seed
		cfg.Cores = *cores
		cfg.AESLat = *aesNS * 1000
		cfg.MeasureAccesses = *accesses
		cfg.Metrics = reg
		cfg.Tracer = tr
		res := rmcc.RunDetailed(w, cfg)
		printDetailed(res)
		manifest.Headline["ipc"] = res.IPC
		manifest.Headline["llc_misses"] = float64(res.LLCMisses)
		manifest.Headline["avg_miss_latency_ns"] = res.AvgMissLatencyNS
		manifest.Headline["ctr_miss_rate"] = res.Engine.CtrMissRate()
		manifest.Headline["memo_hit_rate_on_misses"] = res.Engine.MemoHitRateOnMisses()
	default:
		fatal(fmt.Errorf("unknown driver %q", *driver))
	}
	manifest.WallClockSeconds = time.Since(started).Seconds()

	if reg != nil {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fatal(fmt.Errorf("write metrics: %w", err))
		}
	}
	if tr != nil {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(fmt.Errorf("write trace: %w", err))
		}
	}
	if *manifestOut != "" {
		if err := manifest.WriteFile(*manifestOut); err != nil {
			fatal(fmt.Errorf("write manifest: %w", err))
		}
	}
}

func printLifetime(res rmcc.LifetimeResult) {
	e := res.Engine
	fmt.Printf("workload            %s\n", res.Workload)
	fmt.Printf("accesses            %d\n", res.Accesses)
	fmt.Printf("LLC miss reads      %d\n", res.LLCMissReads)
	fmt.Printf("LLC miss writes     %d\n", res.LLCMissWrites)
	fmt.Printf("ctr miss rate       %.1f%%\n", 100*e.CtrMissRate())
	fmt.Printf("memo hit (misses)   %.1f%%\n", 100*e.MemoHitRateOnMisses())
	fmt.Printf("memo hit (all)      %.1f%%\n", 100*e.MemoHitRateAll())
	fmt.Printf("accelerated misses  %.1f%%\n", 100*e.AcceleratedRate())
	fmt.Printf("coverage/value      %.0f blocks\n", res.CoveragePerValue)
	fmt.Printf("total traffic       %d blocks\n", e.TotalTraffic())
	fmt.Printf("overhead (L0/L1)    %d / %d blocks\n", e.OverheadL0Blocks, e.OverheadL1Blocks)
	fmt.Printf("baseline overflows  %d\n", e.BaselineOverflows)
	fmt.Printf("max counter         %d\n", res.MaxCounter)
	fmt.Printf("TLB miss/LLC miss   4KB %.2f, 2MB %.3f\n",
		float64(res.TLB4KMisses)/nz(res.LLCMissReads), float64(res.TLB2MMisses)/nz(res.LLCMissReads))
}

func printDetailed(res rmcc.DetailedResult) {
	fmt.Printf("workload            %s\n", res.Workload)
	fmt.Printf("instructions        %d\n", res.Instructions)
	fmt.Printf("IPC                 %.3f\n", res.IPC)
	fmt.Printf("window              %.3f ms\n", float64(res.WindowTime)/1e9)
	fmt.Printf("LLC misses          %d\n", res.LLCMisses)
	fmt.Printf("avg miss latency    %.1f ns\n", res.AvgMissLatencyNS)
	fmt.Printf("DRAM utilization    %.1f%%\n", 100*res.DRAM.Utilization(res.WindowTime))
	fmt.Printf("ctr miss rate       %.1f%%\n", 100*res.Engine.CtrMissRate())
	fmt.Printf("memo hit (misses)   %.1f%%\n", 100*res.Engine.MemoHitRateOnMisses())
}

func nz(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmccsim:", err)
	os.Exit(2)
}

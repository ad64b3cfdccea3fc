// Command rmccsim runs one secure-memory simulation: a workload, a counter
// scheme, a protection mode, and a driver (lifetime or detailed), printing
// the result summary. -metrics-out writes the whole result
// (sim.LifetimeResult or sim.DetailedResult) as JSON.
//
// Examples:
//
//	rmccsim -workload canneal -mode rmcc -driver lifetime -accesses 5000000
//	rmccsim -workload pageRank -mode baseline -scheme sc64 -driver detailed
//	rmccsim -workload canneal -metrics-out result.json
//	rmccsim -cpuprofile cpu.out -workload BFS -driver detailed
//	rmccsim -list
//
// See docs/PERFORMANCE.md for the profiling workflow (-cpuprofile,
// -memprofile, -pprof).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmccsim:", err)
		os.Exit(2)
	}
}

// run parses args, runs one simulation, prints its summary to stdout and
// writes the requested files. It returns the run's result, an
// rmcc.LifetimeResult or an rmcc.DetailedResult (nil for -version and
// -list).
func run(args []string, stdout io.Writer) (any, error) {
	fs := flag.NewFlagSet("rmccsim", flag.ExitOnError)
	var (
		name       = fs.String("workload", "canneal", "workload name (see -list)")
		list       = fs.Bool("list", false, "list workloads and exit")
		sizeStr    = fs.String("size", "small", "workload scale: test|small|full")
		modeStr    = fs.String("mode", "rmcc", "protection: nonsecure|baseline|rmcc")
		schemeStr  = fs.String("scheme", "morphable", "counters: sgx|sc64|morphable")
		driver     = fs.String("driver", "lifetime", "simulation driver: lifetime|detailed")
		accesses   = fs.Uint64("accesses", 5_000_000, "lifetime accesses / detailed window")
		seed       = fs.Uint64("seed", 1, "experiment seed")
		aesNS      = fs.Int64("aes", 15, "AES latency in ns (detailed driver)")
		cores      = fs.Int("cores", 1, "cores (detailed driver; graph kernels shard)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		metricsOut  = fs.String("metrics-out", "", "write the run's result (JSON, Go field names as keys) to this file (- for stdout)")
		traceOut    = fs.String("trace-out", "", "write the per-access event trace (JSON Lines) to this file (- for stdout)")
		traceCap    = fs.Int("trace-cap", obs.DefaultTracerCap, "event-trace ring capacity (newest N events retained)")
		manifestOut = fs.String("manifest-out", "", "write the run manifest (JSON) to this file")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("rmccsim"))
		return nil, nil
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(rmcc.WorkloadNames(), "\n"))
		return nil, nil
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
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
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
		return nil, err
	}
	mode, err := engine.ParseMode(*modeStr)
	if err != nil {
		return nil, err
	}
	scheme, err := counter.ParseScheme(*schemeStr)
	if err != nil {
		return nil, err
	}
	w, ok := rmcc.WorkloadByName(size, *seed, *name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (use -list)", *name)
	}

	// One tracer per run, attached through the driver config and written
	// after the run completes.
	var tr *obs.Tracer
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
	var result any
	switch *driver {
	case "lifetime":
		cfg := rmcc.DefaultLifetimeConfig(engCfg)
		cfg.MaxAccesses = *accesses
		cfg.Seed = *seed
		cfg.Tracer = tr
		res := rmcc.RunLifetime(w, cfg)
		result = res
		printLifetime(stdout, res)
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
		cfg.Tracer = tr
		res := rmcc.RunDetailed(w, cfg)
		result = res
		printDetailed(stdout, res)
		manifest.Headline["ipc"] = res.IPC
		manifest.Headline["llc_misses"] = float64(res.LLCMisses)
		manifest.Headline["avg_miss_latency_ns"] = res.AvgMissLatencyNS
		manifest.Headline["ctr_miss_rate"] = res.Engine.CtrMissRate()
		manifest.Headline["memo_hit_rate_on_misses"] = res.Engine.MemoHitRateOnMisses()
	default:
		return nil, fmt.Errorf("unknown driver %q", *driver)
	}
	manifest.WallClockSeconds = time.Since(started).Seconds()

	if *metricsOut != "" {
		if err := writeResult(*metricsOut, stdout, result); err != nil {
			return nil, fmt.Errorf("write metrics: %w", err)
		}
	}
	if tr != nil {
		if err := tr.WriteFile(*traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if *manifestOut != "" {
		if err := manifest.WriteFile(*manifestOut); err != nil {
			return nil, fmt.Errorf("write manifest: %w", err)
		}
	}
	return result, nil
}

// writeResult writes res as indented JSON with Go field names as keys,
// the encoding rmccd's ReplayStats.Engine uses; "-" writes to stdout.
func writeResult(path string, stdout io.Writer, res any) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func printLifetime(w io.Writer, res rmcc.LifetimeResult) {
	e := res.Engine
	fmt.Fprintf(w, "workload            %s\n", res.Workload)
	fmt.Fprintf(w, "accesses            %d\n", res.Accesses)
	fmt.Fprintf(w, "LLC miss reads      %d\n", res.LLCMissReads)
	fmt.Fprintf(w, "LLC miss writes     %d\n", res.LLCMissWrites)
	fmt.Fprintf(w, "ctr miss rate       %.1f%%\n", 100*e.CtrMissRate())
	fmt.Fprintf(w, "memo hit (misses)   %.1f%%\n", 100*e.MemoHitRateOnMisses())
	fmt.Fprintf(w, "memo hit (all)      %.1f%%\n", 100*e.MemoHitRateAll())
	fmt.Fprintf(w, "accelerated misses  %.1f%%\n", 100*e.AcceleratedRate())
	fmt.Fprintf(w, "coverage/value      %.0f blocks\n", res.CoveragePerValue)
	fmt.Fprintf(w, "total traffic       %d blocks\n", e.TotalTraffic())
	fmt.Fprintf(w, "overhead (L0/L1)    %d / %d blocks\n", e.OverheadL0Blocks, e.OverheadL1Blocks)
	fmt.Fprintf(w, "baseline overflows  %d\n", e.BaselineOverflows)
	fmt.Fprintf(w, "max counter         %d\n", res.MaxCounter)
	fmt.Fprintf(w, "TLB miss/LLC miss   4KB %.2f, 2MB %.3f\n",
		float64(res.TLB4KMisses)/nz(res.LLCMissReads), float64(res.TLB2MMisses)/nz(res.LLCMissReads))
}

func printDetailed(w io.Writer, res rmcc.DetailedResult) {
	fmt.Fprintf(w, "workload            %s\n", res.Workload)
	fmt.Fprintf(w, "instructions        %d\n", res.Instructions)
	fmt.Fprintf(w, "IPC                 %.3f\n", res.IPC)
	fmt.Fprintf(w, "window              %.3f ms\n", float64(res.WindowTime)/1e9)
	fmt.Fprintf(w, "LLC misses          %d\n", res.LLCMisses)
	fmt.Fprintf(w, "avg miss latency    %.1f ns\n", res.AvgMissLatencyNS)
	fmt.Fprintf(w, "DRAM utilization    %.1f%%\n", 100*res.DRAM.Utilization(res.WindowTime))
	fmt.Fprintf(w, "ctr miss rate       %.1f%%\n", 100*res.Engine.CtrMissRate())
	fmt.Fprintf(w, "memo hit (misses)   %.1f%%\n", 100*res.Engine.MemoHitRateOnMisses())
}

func nz(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

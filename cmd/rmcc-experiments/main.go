// Command rmcc-experiments regenerates the paper's tables and figures.
//
// Examples:
//
//	rmcc-experiments -quick                      # all figures, scaled down
//	rmcc-experiments -figures figure13,figure14  # just the headline plots
//	rmcc-experiments -workloads canneal,mcf      # subset of benchmarks
//	rmcc-experiments -quick -json -micro         # machine-readable perf report
//	rmcc-experiments -quick -parallel 8          # eight simulation workers
//
// The -json report (see scripts/bench.sh) carries every figure's rows plus
// in-process micro-benchmarks of the simulator hot paths, and is the format
// the perf-regression harness checks into BENCH_<date>.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"rmcc"
	"rmcc/internal/buildinfo"
	"rmcc/internal/core"
	"rmcc/internal/crypto/aes"
	"rmcc/internal/crypto/otp"
	"rmcc/internal/mem/cache"
	"rmcc/internal/obs"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

func main() {
	var (
		figures    = flag.String("figures", "all", "comma-separated figure names, or 'all'")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default all)")
		quick      = flag.Bool("quick", false, "scaled-down runs (small workloads, short windows)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		listFlag   = flag.Bool("list", false, "list figures and exit")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker pool size (1 = sequential)")
		jsonFlag   = flag.Bool("json", false, "emit a machine-readable report on stdout instead of tables")
		micro      = flag.Bool("micro", false, "also run hot-path micro-benchmarks (AES, engine, memo table)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		manifestOut = flag.String("manifest-out", "", "write the run manifest (JSON) to this file")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-experiments"))
		return
	}

	all := rmcc.Experiments()
	if *listFlag {
		for _, e := range all {
			fmt.Println(e.Name)
		}
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rmcc-experiments: pprof server: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmcc-experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rmcc-experiments: %v\n", err)
			os.Exit(1)
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
				fmt.Fprintf(os.Stderr, "rmcc-experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rmcc-experiments: %v\n", err)
			}
		}()
	}

	opts := rmcc.DefaultExperimentOptions()
	if *quick {
		opts = rmcc.QuickExperimentOptions()
	}
	opts.Seed = *seed
	opts.Parallelism = *parallel
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
		for _, w := range opts.Workloads {
			if !slices.Contains(workload.Names(), w) {
				fmt.Fprintf(os.Stderr, "rmcc-experiments: unknown workload %q (use rmccsim -list)\n", w)
				os.Exit(2)
			}
		}
	}

	// SIGINT/SIGTERM cancels the sweep: workers stop picking up cells, the
	// current figure returns with its finished cells, and the run exits
	// non-zero instead of simulating for hours after the user gave up.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts.Context = ctx

	want := map[string]bool{}
	if *figures != "all" {
		for _, f := range strings.Split(*figures, ",") {
			want[strings.TrimSpace(f)] = true
		}
		for f := range want {
			if !known(all, f) {
				fmt.Fprintf(os.Stderr, "rmcc-experiments: unknown figure %q (use -list)\n", f)
				os.Exit(2)
			}
		}
	}

	report := jsonReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Quick:       *quick,
		Seed:        *seed,
		Parallelism: *parallel,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	// The manifest mirrors the perf report's headline numbers.
	manifest := obs.NewManifest("rmcc-experiments", map[string]any{
		"figures": *figures, "workloads": *workloads, "quick": *quick,
		"parallel": *parallel, "micro": *micro,
	})
	manifest.Seed = *seed
	manifest.GoMaxProcs = runtime.GOMAXPROCS(0)
	manifest.Notes["figures"] = *figures
	manifest.Notes["quick"] = fmt.Sprintf("%v", *quick)

	start := time.Now()
	manifest.Started = start.UTC().Format(time.RFC3339)
	figuresRun := 0
	for _, e := range all {
		if *figures != "all" && !want[e.Name] {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		figStart := time.Now()
		table := e.Run(opts)
		secs := time.Since(figStart).Seconds()
		if ctx.Err() != nil {
			// The sweep was cancelled mid-figure; its table holds zero
			// values for unfinished cells — don't report it as a result.
			break
		}
		figuresRun++
		manifest.Headline["seconds_"+e.Name] = secs
		if *jsonFlag {
			report.Figures = append(report.Figures, toJSONFigure(e.Name, table, secs))
			fmt.Fprintf(os.Stderr, "%s regenerated in %.1fs\n", e.Name, secs)
		} else {
			fmt.Println(table)
			fmt.Printf("(%s regenerated in %.1fs)\n\n", e.Name, secs)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "rmcc-experiments: interrupted; stopping sweep")
		os.Exit(130)
	}
	if *micro {
		report.Micro = microBenchmarks()
		for _, m := range report.Micro {
			manifest.Headline["micro_"+m.Name+"_ns_per_op"] = m.NsPerOp
			manifest.Headline["micro_"+m.Name+"_allocs_per_op"] = float64(m.AllocsPerOp)
		}
		if !*jsonFlag {
			fmt.Println("Micro-benchmarks (in-process, testing.Benchmark):")
			for _, m := range report.Micro {
				fmt.Printf("  %-28s %10.1f ns/op %6d B/op %4d allocs/op\n",
					m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
			}
		}
	}
	report.TotalSeconds = time.Since(start).Seconds()
	manifest.WallClockSeconds = report.TotalSeconds
	manifest.Headline["total_seconds"] = report.TotalSeconds
	manifest.Headline["figures_run"] = float64(figuresRun)
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "rmcc-experiments: %v\n", err)
			os.Exit(1)
		}
	}

	if *manifestOut != "" {
		if err := manifest.WriteFile(*manifestOut); err != nil {
			fmt.Fprintf(os.Stderr, "rmcc-experiments: write manifest: %v\n", err)
			os.Exit(1)
		}
	}
}

// jsonReport is the schema of the -json perf report consumed by
// scripts/bench.sh and archived as BENCH_<date>.json.
type jsonReport struct {
	Generated    string       `json:"generated"`
	Quick        bool         `json:"quick"`
	Seed         uint64       `json:"seed"`
	Parallelism  int          `json:"parallelism"`
	GoMaxProcs   int          `json:"gomaxprocs"`
	Figures      []jsonFigure `json:"figures,omitempty"`
	Micro        []jsonMicro  `json:"micro,omitempty"`
	TotalSeconds float64      `json:"total_seconds"`
}

type jsonFigure struct {
	Name    string    `json:"name"`
	Title   string    `json:"title"`
	Unit    string    `json:"unit,omitempty"`
	Series  []string  `json:"series"`
	Rows    []jsonRow `json:"rows"`
	Mean    []float64 `json:"mean"`
	Seconds float64   `json:"seconds"`
}

type jsonRow struct {
	Name  string    `json:"name"`
	Cells []float64 `json:"cells"`
}

type jsonMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func toJSONFigure(name string, t *rmcc.ResultTable, secs float64) jsonFigure {
	f := jsonFigure{
		Name:    name,
		Title:   t.Title,
		Unit:    t.Unit,
		Series:  t.Series,
		Mean:    t.Mean(),
		Seconds: secs,
	}
	for _, r := range t.Rows {
		f.Rows = append(f.Rows, jsonRow{Name: r.Name, Cells: r.Cells})
	}
	return f
}

// sinks defeat dead-code elimination in the micro-benchmark loops.
var (
	sinkHi, sinkLo uint64
	sinkBuf        [16]byte
)

// microBenchmarks measures the simulator hot paths in-process via
// testing.Benchmark, so the perf report records ns/op and allocs/op for the
// exact binary being shipped: the T-table AES fast path and its byte-wise
// reference (the speedup denominator), the engine read paths, the cache
// model, and the memoization-table lookup.
func microBenchmarks() []jsonMicro {
	key := []byte("0123456789abcdef")
	c := aes.MustNew(key)
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"aes_encrypt_ttable", func(b *testing.B) {
			var hi, lo uint64 = 0x0011223344556677, 0x8899aabbccddeeff
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hi, lo = c.EncryptWords(hi, lo)
			}
			sinkHi, sinkLo = hi, lo
		}},
		{"aes_encrypt_reference", func(b *testing.B) {
			var buf [16]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.EncryptReference(buf[:], buf[:])
			}
			sinkBuf = buf
		}},
		{"engine_read_hit", func(b *testing.B) {
			mc := engine.New(engine.DefaultConfig(engine.RMCC, counter.Morphable, 64<<20))
			mc.Read(0x100000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc.Read(0x100000 + uint64(i&63)*64)
			}
		}},
		{"engine_read_miss", func(b *testing.B) {
			cfg := engine.DefaultConfig(engine.RMCC, counter.Morphable, 256<<20)
			cfg.CounterCacheBytes = 8 << 10
			mc := engine.New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc.Read(uint64(i) * (8 << 10) % (128 << 20))
			}
		}},
		// The replay body decoder: one 4096-access RMTR frame per op.
		{"replay_decode_binary", func(b *testing.B) {
			frame := wireBatchFrame()
			src := bytes.NewReader(frame)
			fr := trace.NewFrameReader(src)
			batch := make([]workload.Access, 0, trace.DefaultFrameAccesses)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				var err error
				if batch, err = fr.DecodeInto(batch); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The flight-recorder hot path: one finished span into the crash
		// ring per op. The benchdiff alloc gate holds this at zero — the
		// recorder rides every request span, so a regression here taxes
		// the whole service.
		{"flight_record", func(b *testing.B) {
			fr := obs.NewFlightRecorder(1<<20, "bench")
			span := obs.SpanRecord{
				ID: 1, Parent: 0, TraceHi: 0xaaaa, TraceLo: 0xbbbb,
				Name: "engine-step", Detail: "s-0123456789abcdef",
				Start: 1234, Duration: 5678,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				span.ID = uint64(i)
				fr.RecordSpan(span)
			}
		}},
		// The cache model on the counter-cache geometry (128 KiB, 32-way,
		// 64 B lines): a seeded stream over 1.5x its capacity in lines,
		// so about two thirds of the accesses hit and the rest evict.
		{"cache_access", func(b *testing.B) {
			c := cache.New(cache.Config{SizeBytes: 128 << 10, Ways: 32, LineBytes: 64})
			r := rng.New(1)
			addrs := make([]uint64, 4096)
			for i := range addrs {
				addrs[i] = r.Uint64n(3<<10) << 6
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i&4095], i&7 == 0)
			}
		}},
		{"memo_lookup", func(b *testing.B) {
			unit := otp.MustNewUnit(otp.DeriveKeys([16]byte{1}))
			cfg := core.DefaultConfig()
			cfg.OverMaxThreshold = 1 << 40
			tbl := core.MustNewTable(cfg, unit.CounterOnly, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := uint64(i) & 127
				if i&1 == 1 {
					v += 1 << 20
				}
				tbl.Lookup(v, true)
			}
		}},
	}
	out := make([]jsonMicro, 0, len(benches))
	for _, mb := range benches {
		r := testing.Benchmark(mb.fn)
		out = append(out, jsonMicro{
			Name:        mb.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}

// wireBatch captures one frame's worth of canneal accesses for the
// replay-decode micro.
func wireBatch() []workload.Access {
	w, _ := rmcc.WorkloadByName(rmcc.SizeTest, 1, "canneal")
	accs := make([]workload.Access, 0, trace.DefaultFrameAccesses)
	w.Run(1, func(a workload.Access) bool {
		accs = append(accs, a)
		return len(accs) < trace.DefaultFrameAccesses
	})
	return accs
}

func wireBatchFrame() []byte {
	var buf bytes.Buffer
	fw := trace.NewFrameWriter(&buf, trace.DefaultFrameAccesses)
	for _, a := range wireBatch() {
		if err := fw.Append(a); err != nil {
			panic(err)
		}
	}
	if err := fw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func known(all []struct {
	Name string
	Run  func(rmcc.ExperimentOptions) *rmcc.ResultTable
}, name string) bool {
	for _, e := range all {
		if e.Name == name {
			return true
		}
	}
	return false
}

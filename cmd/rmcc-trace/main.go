// Command rmcc-trace records workload access streams to compact trace
// files and inspects or replays them through the lifetime simulator —
// the Pin-trace role in the paper's methodology.
//
// An RMTR trace is a short header followed by rmccd's binary replay body,
// so rmcc-loadgen -trace-file (or client.ReplayTrace) uploads a recorded
// file as it stands. The tool also converts access streams between NDJSON
// (one {"addr","write","gap"} object per line) and RMTR: -encode turns
// NDJSON into an RMTR trace; -decode turns a trace back into NDJSON.
// Gaps above 127 are clamped, as the RMTR format stores 7 bits.
//
// Examples:
//
//	rmcc-trace -record -workload canneal -n 1000000 -o canneal.rmtr
//	rmcc-trace -info canneal.rmtr
//	rmcc-trace -replay canneal.rmtr -mode rmcc
//	rmcc-trace -encode accesses.ndjson -label canneal -o canneal.rmtr
//	rmcc-trace -decode canneal.rmtr            # NDJSON on stdout
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"rmcc"
	"rmcc/internal/buildinfo"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

func main() {
	var (
		record  = flag.Bool("record", false, "record a workload trace")
		info    = flag.String("info", "", "print a trace file's summary")
		replay  = flag.String("replay", "", "replay a trace through the lifetime simulator")
		name    = flag.String("workload", "canneal", "workload to record")
		sizeStr = flag.String("size", "small", "workload scale: test|small|full")
		n       = flag.Uint64("n", 1_000_000, "accesses to record / replay")
		seed    = flag.Uint64("seed", 1, "record seed")
		encode  = flag.String("encode", "", "convert an NDJSON access stream (file, or - for stdin) to an RMTR trace at -o")
		decode  = flag.String("decode", "", "convert an RMTR trace to NDJSON (stdout unless -o is set)")
		label   = flag.String("label", "ndjson", "stream name stored in the trace header for -encode")
		out     = flag.String("o", "trace.rmtr", "output file for -record/-encode/-decode")
		modeStr = flag.String("mode", "rmcc", "replay protection: nonsecure|baseline|rmcc")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-trace"))
		return
	}

	switch {
	case *record:
		size, err := workload.ParseSize(*sizeStr)
		if err != nil {
			fatal(err)
		}
		w, ok := rmcc.WorkloadByName(size, *seed, *name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		count, err := trace.Record(w, *seed, *n, f)
		if err != nil {
			fatal(err)
		}
		st, _ := f.Stat()
		fmt.Printf("recorded %d accesses of %s to %s (%.1f MB, %.2f B/access)\n",
			count, w.Name(), *out, float64(st.Size())/1e6, float64(st.Size())/float64(count))

	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		summarize(f)

	case *encode != "":
		in := os.Stdin
		if *encode != "-" {
			f, err := os.Open(*encode)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		count, err := encodeNDJSON(in, f, *label)
		if err != nil {
			fatal(err)
		}
		st, _ := f.Stat()
		fmt.Fprintf(os.Stderr, "encoded %d accesses to %s (%.2f B/access)\n",
			count, *out, float64(st.Size())/float64(count))

	case *decode != "":
		f, err := os.Open(*decode)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// NDJSON goes to stdout unless -o was given explicitly (the
		// -record default "trace.rmtr" must not capture decode output).
		dst := io.Writer(os.Stdout)
		outSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "o" {
				outSet = true
			}
		})
		if outSet {
			of, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer of.Close()
			dst = of
		}
		if _, err := decodeToNDJSON(f, dst); err != nil {
			fatal(err)
		}

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		rep, err := trace.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		mode, err := engine.ParseMode(*modeStr)
		if err != nil {
			fatal(err)
		}
		cfg := sim.DefaultLifetimeConfig(engine.DefaultConfig(mode, counter.Morphable, 0))
		cfg.MaxAccesses = *n
		res := sim.RunLifetime(rep, cfg)
		fmt.Printf("replayed %d accesses of %s under %s\n", res.Accesses, rep.Name(), mode)
		fmt.Printf("ctr miss rate      %.1f%%\n", 100*res.Engine.CtrMissRate())
		fmt.Printf("memo hit (misses)  %.1f%%\n", 100*res.Engine.MemoHitRateOnMisses())
		fmt.Printf("accelerated        %.1f%%\n", 100*res.Engine.AcceleratedRate())

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// accessRecord is one NDJSON access line, mirroring workload.Access.
type accessRecord struct {
	Addr uint64 `json:"addr"`
	// Write marks stores; omitted/false = load.
	Write bool `json:"write,omitempty"`
	// Gap is the count of non-memory instructions since the previous
	// access (0-255 here; RMTR keeps 0-127).
	Gap uint8 `json:"gap,omitempty"`
}

// decodeAccessLine parses one NDJSON line strictly: unknown fields,
// out-of-range values and trailing data are errors.
func decodeAccessLine(line []byte) (workload.Access, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec accessRecord
	if err := dec.Decode(&rec); err != nil {
		return workload.Access{}, fmt.Errorf("access record: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return workload.Access{}, errors.New("access record: trailing data after object")
	}
	return workload.Access{Addr: rec.Addr, Write: rec.Write, Gap: rec.Gap}, nil
}

// encodeNDJSON converts an NDJSON access stream into an RMTR trace named
// label. Gaps above the RMTR 7-bit field are clamped.
func encodeNDJSON(in io.Reader, out io.Writer, label string) (uint64, error) {
	bw := bufio.NewWriterSize(out, 256<<10)
	tw, err := trace.NewWriter(bw, label)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var count, line uint64
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		a, err := decodeAccessLine(raw)
		if err != nil {
			return count, fmt.Errorf("line %d: %w", line, err)
		}
		if err := tw.Append(a); err != nil {
			return count, err
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return count, err
	}
	if err := tw.Flush(); err != nil {
		return count, err
	}
	return count, bw.Flush()
}

// decodeToNDJSON renders an RMTR trace as NDJSON, one accessRecord per
// line, byte-identical to json.Marshal of the record (omitempty fields
// included) so round-trips are exact.
func decodeToNDJSON(in io.Reader, out io.Writer) (uint64, error) {
	tr, err := trace.NewReader(in)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 256<<10)
	buf := make([]byte, 0, 64)
	var count uint64
	for {
		a, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return count, err
		}
		buf = appendAccessNDJSON(buf[:0], a)
		if _, err := bw.Write(buf); err != nil {
			return count, err
		}
		count++
	}
	return count, bw.Flush()
}

// appendAccessNDJSON formats one access exactly as json.Marshal formats
// accessRecord — "write" and "gap" omitted when zero.
func appendAccessNDJSON(b []byte, a workload.Access) []byte {
	b = append(b, `{"addr":`...)
	b = strconv.AppendUint(b, a.Addr, 10)
	if a.Write {
		b = append(b, `,"write":true`...)
	}
	if a.Gap != 0 {
		b = append(b, `,"gap":`...)
		b = strconv.AppendUint(b, uint64(a.Gap), 10)
	}
	return append(b, '}', '\n')
}

func summarize(f *os.File) {
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var count, writes uint64
	var minAddr, maxAddr uint64
	minAddr = ^uint64(0)
	regions := map[uint64]struct{}{}
	for {
		a, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		count++
		if a.Write {
			writes++
		}
		if a.Addr < minAddr {
			minAddr = a.Addr
		}
		if a.Addr > maxAddr {
			maxAddr = a.Addr
		}
		regions[a.Addr>>21] = struct{}{}
	}
	fmt.Printf("workload   %s\n", r.Name())
	fmt.Printf("accesses   %d (%.1f%% writes)\n", count, 100*float64(writes)/float64(count))
	fmt.Printf("addr range [%#x, %#x]\n", minAddr, maxAddr)
	fmt.Printf("2MB pages  %d (~%d MB touched)\n", len(regions), len(regions)*2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcc-trace:", err)
	os.Exit(2)
}

// Command rmcc-faults runs a seeded fault-injection campaign against the
// secure memory engine: it replays a workload, injects a reproducible
// schedule of physical attacks and hardware faults (ciphertext flips,
// counter and MAC tampering, memo-table poisoning, dropped writebacks,
// power loss, counter exhaustion), and scores detection and recovery
// under the selected policy.
//
// Examples:
//
//	rmcc-faults -workload canneal -seed 7
//	rmcc-faults -workload pageRank -recovery retry -kinds ciphertext-flip,mac-tamper
//	rmcc-faults -list-kinds
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"rmcc"
	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "canneal", "workload name")
		sizeStr   = flag.String("size", "test", "workload scale: test|small|full")
		schemeStr = flag.String("scheme", "morphable", "counters: sgx|sc64|morphable")
		recStr    = flag.String("recovery", "rekey", "policy: failstop|retry|rekey")
		kindsStr  = flag.String("kinds", "", "comma-separated fault kinds (default: all)")
		accesses  = flag.Uint64("accesses", 300_000, "workload accesses to replay")
		seed      = flag.Uint64("seed", 7, "campaign seed (schedule + targets)")
		listKinds = flag.Bool("list-kinds", false, "list fault kinds and exit")
		flightOut = flag.String("flight-out", "", "write a flight-recorder dump of the campaign's engine events to this file (rmcc-top -flight renders it)")
		verbose   = flag.Bool("v", false, "print every fault outcome")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-faults"))
		return
	}

	if *listKinds {
		for _, k := range rmcc.AllFaultKinds() {
			tag := "must detect"
			if k.Benign() {
				tag = "benign control"
			}
			fmt.Printf("%-22s %s\n", k, tag)
		}
		return
	}

	size, err := workload.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	scheme, err := counter.ParseScheme(*schemeStr)
	if err != nil {
		fatal(err)
	}
	policy, err := parseRecovery(*recStr)
	if err != nil {
		fatal(err)
	}
	kinds, err := parseKinds(*kindsStr)
	if err != nil {
		fatal(err)
	}
	w, ok := rmcc.WorkloadByName(size, *seed, *name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	engCfg := rmcc.DefaultEngineConfig(rmcc.ModeRMCC, scheme)
	engCfg.Recovery = policy
	lifeCfg := rmcc.DefaultLifetimeConfig(engCfg)
	lifeCfg.MaxAccesses = *accesses
	lifeCfg.Seed = *seed

	// -flight-out tees every engine event (fault injections included) into
	// a flight-recorder ring and dumps it after the campaign — the same
	// postmortem format a crashed rmccd leaves behind, here as a durable
	// record of what the injector did and when.
	var flight *obs.FlightRecorder
	if *flightOut != "" {
		flight = obs.NewFlightRecorder(1<<20, "rmcc-faults")
		tracer := obs.NewTracer(0)
		tracer.SetSink(flight)
		lifeCfg.Tracer = tracer
	}

	campaign := &rmcc.FaultCampaign{
		Workload: w,
		Lifetime: lifeCfg,
		Schedule: rmcc.NewFaultSchedule(*seed, kinds, *accesses),
	}
	res, err := campaign.Run()
	if err != nil {
		fatal(err)
	}
	if flight != nil {
		f, err := os.Create(*flightOut)
		if err == nil {
			err = errors.Join(flight.Dump(f), f.Close())
		}
		if err != nil {
			fatal(fmt.Errorf("write flight dump: %w", err))
		}
		fmt.Printf("flight dump: %s (%d records)\n", *flightOut, flight.Records())
	}

	fmt.Printf("campaign: workload=%s scheme=%v recovery=%v seed=%d accesses=%d\n",
		w.Name(), scheme, policy, *seed, res.Lifetime.Accesses)
	if *verbose {
		for _, fr := range res.Faults {
			fmt.Printf("  %v\n", fr)
		}
	}
	fmt.Println(res.Summary())
	fmt.Println(res.Checker)
	s := res.Lifetime.Engine
	fmt.Printf("engine: rekeys=%d rekey-blocks=%d retries=%d/%d metadata-drops=%d memo-repairs=%d\n",
		s.Rekeys, s.RekeyBlocks, s.RetryRecoveries, s.RetryAttempts,
		s.MetadataCorruptions, s.MemoPoisonRepaired)

	if res.TamperDetected < res.TamperArmed || res.BenignFlagged > 0 {
		fmt.Println("RESULT: FAIL (missed detections or false positives)")
		os.Exit(1)
	}
	fmt.Println("RESULT: PASS")
}

func parseRecovery(s string) (rmcc.RecoveryPolicy, error) {
	switch s {
	case "failstop":
		return rmcc.RecoveryFailStop, nil
	case "retry":
		return rmcc.RecoveryRetryRefetch, nil
	case "rekey":
		return rmcc.RecoveryRekey, nil
	}
	return 0, fmt.Errorf("unknown recovery policy %q", s)
}

func parseKinds(s string) ([]rmcc.FaultKind, error) {
	if s == "" {
		return nil, nil
	}
	byName := make(map[string]rmcc.FaultKind)
	for _, k := range rmcc.AllFaultKinds() {
		byName[k.String()] = k
	}
	var out []rmcc.FaultKind
	for _, part := range strings.Split(s, ",") {
		k, ok := byName[strings.TrimSpace(part)]
		if !ok {
			return nil, fmt.Errorf("unknown fault kind %q (use -list-kinds)", part)
		}
		out = append(out, k)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcc-faults:", err)
	os.Exit(1)
}

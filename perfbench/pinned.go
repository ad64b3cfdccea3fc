package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// pinnedSeed seeds the reference run every invocation makes after its
// measured loop: set-up, warm-up and one request through the same runner
// code as the measured loop.
const pinnedSeed = 1

// pinned holds each workload's reference digest: the SHA-256 of the JSON
// encoding of the reference run's simulated results (runner.pinned). A
// speed-only change leaves every simulated statistic, and so these, as
// they are. A change meant to alter simulated results regenerates them
// with --print-pinned.
var pinned = map[string]string{
	"lifetime-canneal": "eef9228cd6df4cd58f1679aa476294c0c4407c55704168aa744e96e12699d4dd",
	"replay-pageRank":  "2d85ecdd064e6a3b23d68d07af0926f697e765b2018b54d40eacefec2af6113d",
}

// referenceDigest runs def's reference run and digests its results.
func referenceDigest(def workloadDef) (string, error) {
	r, err := def.setup(pinnedSeed, false)
	if err != nil {
		return "", err
	}
	defer r.close()
	if err := r.warm(); err != nil {
		return "", err
	}
	if _, _, err := r.request(nil, 0); err != nil {
		return "", err
	}
	if err := r.verify(); err != nil {
		return "", err
	}
	b, err := json.Marshal(r.pinned())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkPinned fails when def's reference results differ from the pin.
func checkPinned(def workloadDef) error {
	got, err := referenceDigest(def)
	if err != nil {
		return err
	}
	if want := pinned[def.name]; got != want {
		return fmt.Errorf("results at seed %d digest to %s, pinned %s", pinnedSeed, got, want)
	}
	return nil
}

// printPinned prints the pinned map's entries for the current program.
func printPinned() error {
	for _, def := range workloads {
		d, err := referenceDigest(def)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		fmt.Printf("\t%q: %q,\n", def.name, d)
	}
	return nil
}

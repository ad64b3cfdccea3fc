package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"rmcc/internal/buildinfo"
)

// ManifestSchemaVersion identifies the manifest format; bump on breaking
// changes so CI diff tooling can refuse mismatched artifacts.
const ManifestSchemaVersion = 1

// Manifest describes one simulator run as a diffable CI artifact: what was
// run (tool, config hash, seed, git revision), when and for how long, and
// the headline metrics the run produced. It is written alongside
// BENCH_<date>.json by scripts/bench.sh and by the -manifest-out flags of
// cmd/rmccsim and cmd/rmcc-experiments.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	// GitSHA is the source revision (GITHUB_SHA, or the binary's embedded
	// VCS stamp, or "unknown" outside a checkout).
	GitSHA string `json:"git_sha"`
	// ConfigHash fingerprints the effective run configuration (flags and
	// derived options), so two manifests are comparable iff it matches.
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
	// Started is the run's start time in RFC 3339 UTC.
	Started          string  `json:"started"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	GoMaxProcs       int     `json:"gomaxprocs,omitempty"`
	// Headline carries the run's key metrics (hit rates, figure means,
	// micro-bench readings) keyed by metric name.
	Headline map[string]float64 `json:"headline"`
	// Notes carries free-form context (workload, mode, figure list).
	Notes map[string]string `json:"notes,omitempty"`
}

// NewManifest returns a manifest shell for tool with the schema version,
// git SHA, and config hash filled in.
func NewManifest(tool string, config any) Manifest {
	return Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          tool,
		GitSHA:        GitSHA(),
		ConfigHash:    HashConfig(config),
		Headline:      map[string]float64{},
		Notes:         map[string]string{},
	}
}

// WriteJSON writes the manifest as indented JSON. Map keys are sorted by
// encoding/json, so output is deterministic for equal contents.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path (0644).
func (m Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HashConfig fingerprints any JSON-serializable configuration with FNV-1a
// over its canonical (sorted-key) JSON encoding. Not cryptographic — it
// only needs to distinguish configurations for diffing.
func HashConfig(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Fall back to the error text: still deterministic per type.
		b = []byte(err.Error())
	}
	// encoding/json sorts map keys but struct order is declaration order,
	// which is stable for a given build — good enough for a fingerprint.
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// GitSHA resolves the source revision: $GITHUB_SHA if set (CI), else the
// VCS stamp the linker embedded in the binary, else "unknown". No
// subprocess: manifests stay cheap to cut from long-running daemons.
func GitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return buildinfo.GitSHA()
}

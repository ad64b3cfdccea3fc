package engine

import (
	"errors"
	"fmt"

	"rmcc/internal/obs"
)

// Sentinel errors for the failure classes the memory controller can hit.
// Concrete violations carry an *IntegrityError whose Unwrap resolves to one
// of these, so callers classify with errors.Is.
var (
	// ErrInvalidConfig wraps every Config.Validate failure.
	ErrInvalidConfig = errors.New("engine: invalid configuration")
	// ErrIntegrityViolation covers MAC and plaintext verification failures
	// on data blocks (tamper, replay, corrupted counters).
	ErrIntegrityViolation = errors.New("engine: integrity violation")
	// ErrCounterOverflow marks a counter reaching the architectural 56-bit
	// ceiling, forcing the whole-memory re-key ("reboot", paper §VII).
	ErrCounterOverflow = errors.New("engine: counter reached the 56-bit ceiling")
	// ErrMetadataCorruption marks a counter-cache line whose address does
	// not map to any metadata block (corrupted tag or injected garbage).
	ErrMetadataCorruption = errors.New("engine: counter cache held a non-metadata address")
	// ErrMemoCorruption marks a memoization-table entry whose stored AES
	// result disagrees with a fresh computation (poisoned SRAM).
	ErrMemoCorruption = errors.New("engine: memoization table entry corrupted")
	// ErrContentsDisabled is returned by content-image operations (tamper
	// injection, snapshots) when the controller was built without
	// TrackContents.
	ErrContentsDisabled = errors.New("engine: operation requires TrackContents")
)

// ViolationKind classifies an integrity violation.
type ViolationKind int

// Violation kinds, in severity order.
const (
	// ViolationMAC: a data block failed its MAC check on read.
	ViolationMAC ViolationKind = iota
	// ViolationPlaintext: a data block decrypted to the wrong plaintext
	// while its MAC still passed (should not happen with honest MACs; kept
	// separate so the functional model can distinguish).
	ViolationPlaintext
	// ViolationMetadataAddr: the counter cache held an address that maps to
	// no metadata block.
	ViolationMetadataAddr
	// ViolationMemoPoison: a memoization-table hit returned a result that
	// disagrees with a fresh AES computation.
	ViolationMemoPoison
	// ViolationCounterOverflow: a counter update would exceed the 56-bit
	// ceiling.
	ViolationCounterOverflow

	// NumViolationKinds sizes per-kind stats arrays.
	NumViolationKinds
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationMAC:
		return "MAC mismatch"
	case ViolationPlaintext:
		return "plaintext mismatch"
	case ViolationMetadataAddr:
		return "metadata-address corruption"
	case ViolationMemoPoison:
		return "memo-table poison"
	case ViolationCounterOverflow:
		return "counter overflow"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// sentinel returns the errors.Is target for the kind.
func (k ViolationKind) sentinel() error {
	switch k {
	case ViolationMetadataAddr:
		return ErrMetadataCorruption
	case ViolationMemoPoison:
		return ErrMemoCorruption
	case ViolationCounterOverflow:
		return ErrCounterOverflow
	default:
		return ErrIntegrityViolation
	}
}

// IntegrityError is one detected integrity violation, surfaced on the
// Outcome of the access that detected it.
type IntegrityError struct {
	Kind ViolationKind
	// Addr is the byte address involved (data block address for data
	// violations, the corrupt cache-line address for metadata violations).
	Addr uint64
	// Block is the data block index for data violations, -1 otherwise.
	Block int
	// Recovered reports that the configured RecoveryPolicy repaired the
	// damage in-line (retry succeeded, entry re-filled, or re-key ran).
	Recovered bool
	// Detail carries human-readable context.
	Detail string
}

// Error formats the violation.
func (e *IntegrityError) Error() string {
	state := "unrecovered"
	if e.Recovered {
		state = "recovered"
	}
	if e.Detail != "" {
		return fmt.Sprintf("%v at %#x (%s): %s", e.Kind, e.Addr, state, e.Detail)
	}
	return fmt.Sprintf("%v at %#x (%s)", e.Kind, e.Addr, state)
}

// Unwrap resolves to the kind's sentinel so errors.Is classifies.
func (e *IntegrityError) Unwrap() error { return e.Kind.sentinel() }

// RecoveryPolicy selects how the controller responds to a detected
// integrity violation (paper §VII assumes detection halts or recovers the
// machine; the fault campaign exercises each response).
type RecoveryPolicy int

// Recovery policies.
const (
	// FailStop records the violation and continues without repair: the
	// corrupted block keeps failing verification. The strictest — and the
	// default — response.
	FailStop RecoveryPolicy = iota
	// RetryRefetch re-fetches and re-verifies the block up to retryLimit
	// (2) times, clearing transient (bus) faults; persistent corruption
	// then fail-stops.
	RetryRefetch
	// RekeyRecover escalates persistent violations to the whole-memory
	// re-key/reboot after retries are exhausted, restoring a verifiable
	// state at the cost of re-encrypting all of memory.
	RekeyRecover
)

// String names the policy.
func (p RecoveryPolicy) String() string {
	switch p {
	case FailStop:
		return "fail-stop"
	case RetryRefetch:
		return "retry-refetch"
	case RekeyRecover:
		return "rekey-recover"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
	}
}

// recordViolation tallies a violation and queues it for the Outcome of the
// access being processed.
func (mc *MC) recordViolation(v *IntegrityError) {
	if v.Kind >= 0 && v.Kind < NumViolationKinds {
		mc.stats.ViolationsByKind[v.Kind]++
	}
	if mc.trace != nil {
		var rec uint64
		if v.Recovered {
			rec = 1
		}
		mc.trace.Emit(obs.EvFaultDetected, v.Addr, uint64(v.Kind), rec)
		if v.Recovered {
			mc.trace.Emit(obs.EvFaultRecovered, v.Addr, uint64(v.Kind), 0)
		}
	}
	mc.pending = append(mc.pending, v)
}

package engine

import (
	"rmcc/internal/crypto/otp"
	"rmcc/internal/secmem/counter"
)

// contentStore maintains a functional image of memory: the plaintext the
// CPU believes is stored, the ciphertext actually in DRAM, and each block's
// MAC. It lets integration tests prove the whole construction end to end —
// every simulated read decrypts to the written plaintext and passes its MAC
// check, including across relevel re-encryptions and counter jumps — and
// lets tests inject tampering.
type contentStore struct {
	unit   *otp.Unit
	plain  map[int][8]uint64
	cipher map[int][8]uint64
	macs   map[int]uint64
	// version feeds deterministic plaintext generation per write.
	version map[int]uint64
	// transient holds per-block counts of armed transient (bus) faults:
	// the next N verifications of the block fail, then the fault clears.
	transient map[int]int
	// dropNext marks blocks whose next writeback is lost on the bus: the
	// logical contents advance but the DRAM image stays stale.
	dropNext map[int]bool
}

func newContentStore(unit *otp.Unit) *contentStore {
	return &contentStore{
		unit:      unit,
		plain:     make(map[int][8]uint64),
		cipher:    make(map[int][8]uint64),
		macs:      make(map[int]uint64),
		version:   make(map[int]uint64),
		transient: make(map[int]int),
		dropNext:  make(map[int]bool),
	}
}

// plaintextFor fabricates the block's logical contents: the workload layer
// does not carry data values, so the image derives them deterministically
// from the block index and write version.
func plaintextFor(i int, version uint64) [8]uint64 {
	var b [8]uint64
	for w := range b {
		x := uint64(i)*8 + uint64(w) + version*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		b[w] = x
	}
	return b
}

func (cs *contentStore) seal(i int, ctr, addr uint64, plain [8]uint64) {
	pad := cs.unit.RMCCPad(cs.unit.CounterOnly(ctr), addr)
	ct := plain
	pad.XorBlock(&ct)
	cs.cipher[i] = ct
	cs.macs[i] = cs.unit.BlockMAC(&ct, cs.unit.RMCCMacOTP(cs.unit.CounterOnly(ctr), addr))
	cs.plain[i] = plain
}

// writeBlock encrypts fresh contents for block i under ctr. An armed
// dropped-writeback fault advances the logical contents but leaves the DRAM
// image stale (sealed under the previous counter), so the next read fails
// verification.
func (cs *contentStore) writeBlock(i int, ctr, addr uint64) {
	cs.version[i]++
	plain := plaintextFor(i, cs.version[i])
	if cs.dropNext[i] {
		delete(cs.dropNext, i)
		cs.plain[i] = plain
		return
	}
	cs.seal(i, ctr, addr, plain)
}

// reencrypt re-seals the existing plaintext under a new counter (relevel or
// read-triggered counter jump: contents unchanged, pad changes).
func (cs *contentStore) reencrypt(i int, ctr, addr uint64) {
	plain, ok := cs.plain[i]
	if !ok {
		// Never-touched block: materialize initial contents first.
		plain = plaintextFor(i, 0)
		cs.plain[i] = plain
	}
	cs.seal(i, ctr, addr, plain)
}

// verifyRead decrypts block i under ctr and checks plaintext and MAC.
// Blocks never written are lazily installed (their DRAM image was sealed at
// initialization under the randomized counter).
func (cs *contentStore) verifyRead(i int, ctr, addr uint64) (plaintextOK, macOK bool) {
	if n := cs.transient[i]; n > 0 {
		// Armed transient fault: the fetched block arrives garbled off the
		// bus, independent of the stored image; a re-fetch may succeed.
		if n == 1 {
			delete(cs.transient, i)
		} else {
			cs.transient[i] = n - 1
		}
		return false, false
	}
	if _, ok := cs.cipher[i]; !ok {
		cs.reencrypt(i, ctr, addr)
	}
	ct := cs.cipher[i]
	pad := cs.unit.RMCCPad(cs.unit.CounterOnly(ctr), addr)
	pt := ct
	pad.XorBlock(&pt)
	plaintextOK = pt == cs.plain[i]
	mac := cs.unit.BlockMAC(&ct, cs.unit.RMCCMacOTP(cs.unit.CounterOnly(ctr), addr))
	macOK = mac == cs.macs[i]
	return plaintextOK, macOK
}

// rekey re-seals every tracked block under the new unit and the
// post-reboot counters (all zero), modeling the reboot's whole-memory
// re-encryption sweep. Armed transient/drop faults are cleared: the sweep
// rewrites every block.
func (cs *contentStore) rekey(unit *otp.Unit, store *counter.Store) {
	cs.unit = unit
	for i := range cs.cipher {
		if _, ok := cs.plain[i]; !ok {
			// Image injected without ground truth (e.g. a replayed
			// ciphertext): restore the block's logical contents.
			cs.plain[i] = plaintextFor(i, cs.version[i])
		}
	}
	for i, plain := range cs.plain {
		cs.seal(i, store.Counter(0, i), store.DataBlockAddr(i), plain)
	}
	cs.transient = make(map[int]int)
	cs.dropNext = make(map[int]bool)
}

// TamperCiphertext flips bits in block i's stored ciphertext, simulating a
// physical attack. The next read must fail its MAC check. Returns
// ErrContentsDisabled when the controller does not track contents.
func (mc *MC) TamperCiphertext(i int) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	if _, ok := mc.contents.cipher[i]; !ok {
		mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	}
	ct := mc.contents.cipher[i]
	// Odd-constant addition rather than XOR: repeated tampering never
	// round-trips back to the original ciphertext.
	ct[0] += 0xdeadbeef
	mc.contents.cipher[i] = ct
	// The recorded plaintext no longer matches either; keep it so the
	// decrypt-mismatch counter also fires.
	return nil
}

// ReplayOldCiphertext overwrites block i's DRAM image with a stale
// (ciphertext, MAC) pair captured earlier, simulating a replay attack; the
// counter has moved on, so the MAC check must fail. Returns
// ErrContentsDisabled when the controller does not track contents.
func (mc *MC) ReplayOldCiphertext(i int, oldCipher [8]uint64, oldMAC uint64) error {
	if mc.contents == nil {
		return ErrContentsDisabled
	}
	mc.contents.cipher[i] = oldCipher
	mc.contents.macs[i] = oldMAC
	return nil
}

// SnapshotCiphertext captures block i's current DRAM image for replay
// tests. Without TrackContents it returns zero values (nothing to
// snapshot).
func (mc *MC) SnapshotCiphertext(i int) ([8]uint64, uint64) {
	if mc.contents == nil {
		return [8]uint64{}, 0
	}
	if _, ok := mc.contents.cipher[i]; !ok {
		mc.contents.reencrypt(i, mc.store.Counter(0, i), mc.store.DataBlockAddr(i))
	}
	return mc.contents.cipher[i], mc.contents.macs[i]
}

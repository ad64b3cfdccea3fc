package engine

import (
	"testing"

	"rmcc/internal/secmem/counter"
)

// FuzzEngineFaultSequence drives an arbitrary interleaving of reads,
// writes, tamper injections, replays, and architectural fault events
// against one controller and asserts the two hard robustness properties:
//
//  1. no operation sequence panics (every failure is a typed violation);
//  2. every persistent tamper is flagged on the very next read of the
//     tampered block.
//
// Each op byte selects an action; the following byte selects its target
// block, so go's fuzzer can minimize adversarial interleavings. The
// tree-metadata op spreads the byte's 256 values over all of memory, so
// it reaches every level-1 node, and takes its amounts from the op byte.
// Adding an op changes the modulus and so what every op byte at or above
// it means: re-encode the inputs under testdata/fuzz so they still run
// the ops they pinned.
func FuzzEngineFaultSequence(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4})
	f.Add(uint8(1), []byte{4, 0, 5, 0, 6, 0, 7, 0, 0, 0})
	f.Add(uint8(2), []byte{8, 9, 9, 1, 10, 2, 11, 3, 0, 1, 1, 1})
	f.Add(uint8(0), []byte{2, 200, 0, 200, 3, 100, 1, 100, 12, 0})
	f.Add(uint8(0), []byte{13, 0, 27, 64, 41, 128, 55, 192})

	f.Fuzz(func(t *testing.T, policy uint8, ops []byte) {
		cfg := DefaultConfig(RMCC, counter.Morphable, 4<<20)
		cfg.TrackContents = true
		cfg.Recovery = RecoveryPolicy(int(policy) % 3)
		cfg.L0Table.EpochAccesses = 1000
		cfg.L1Table.EpochAccesses = 1000
		mc, err := NewChecked(cfg)
		if err != nil {
			t.Fatalf("NewChecked: %v", err)
		}
		st := mc.Store()
		n := st.NumDataBlocks()

		// snapshots for replay injection, captured lazily.
		var snapBlock = -1
		var snapCT [8]uint64
		var snapMAC uint64
		var snapEpoch uint64

		for k := 0; k+1 < len(ops); k += 2 {
			b := int(ops[k+1]) % n
			addr := st.DataBlockAddr(b)
			switch ops[k] % 14 {
			case 0:
				mc.Read(addr)
				mc.OnEpochAccess()
			case 1:
				mc.Write(addr)
				mc.OnEpochAccess()
			case 2: // persistent ciphertext tamper: next read must flag
				if err := mc.TamperCiphertext(b); err != nil {
					t.Fatalf("TamperCiphertext: %v", err)
				}
				out := mc.Read(addr)
				if len(out.Violations) == 0 {
					t.Fatalf("tampered block %d read clean (policy %v)", b, cfg.Recovery)
				}
			case 3: // MAC tamper: next read must flag
				if err := mc.TamperMAC(b); err != nil {
					t.Fatalf("TamperMAC: %v", err)
				}
				out := mc.Read(addr)
				if len(out.Violations) == 0 {
					t.Fatalf("MAC-tampered block %d read clean (policy %v)", b, cfg.Recovery)
				}
			case 4: // snapshot for a later replay
				snapCT, snapMAC = mc.SnapshotCiphertext(b)
				snapBlock = b
				snapEpoch = mc.KeyEpoch()
			case 5: // replay: advance the counter, roll the image back
				if snapBlock >= 0 && snapEpoch == mc.KeyEpoch() {
					raddr := st.DataBlockAddr(snapBlock)
					mc.Write(raddr)
					if err := mc.ReplayOldCiphertext(snapBlock, snapCT, snapMAC); err != nil {
						t.Fatalf("ReplayOldCiphertext: %v", err)
					}
					out := mc.Read(raddr)
					if len(out.Violations) == 0 {
						t.Fatalf("replayed block %d read clean (policy %v)", snapBlock, cfg.Recovery)
					}
					snapBlock = -1
				}
			case 6:
				if err := mc.TamperTransient(b, 1+int(ops[k+1])%3); err != nil {
					t.Fatalf("TamperTransient: %v", err)
				}
				mc.Read(addr)
			case 7:
				mc.CorruptCounter(0, b, st.Counter(0, b)^uint64(ops[k+1]+1))
				mc.Read(addr)
			case 8:
				mc.PoisonMemoEntry(uint64(ops[k+1]))
				mc.Read(addr)
			case 9:
				mc.PoisonCounterCache(uint64(1)<<40 + uint64(ops[k+1])*64)
				mc.Read(addr)
			case 10:
				if err := mc.DropNextWriteback(b); err != nil {
					t.Fatalf("DropNextWriteback: %v", err)
				}
				mc.Write(addr)
				out := mc.Read(addr)
				if len(out.Violations) == 0 {
					t.Fatalf("dropped writeback on block %d read clean (policy %v)", b, cfg.Recovery)
				}
			case 11:
				mc.PowerLoss()
			case 12:
				if err := mc.ForceCounterCeiling(addr); err != nil {
					t.Fatalf("ForceCounterCeiling: %v", err)
				}
				out := mc.Write(addr)
				if !out.Rekeyed {
					t.Fatal("write at the 56-bit ceiling did not re-key")
				}
			case 13: // a level-1 node its group cannot encode, then a bump in it
				amt := uint64(ops[k]) / 14
				b := int(ops[k+1]) * n >> 8
				l0 := st.NodeIndex(b)
				node := st.NodeIndex(l0)
				start := node * st.Coverage()
				sib := start
				if sib == l0 {
					sib++
				}
				if sib < min(start+st.Coverage(), st.TreeLevelLen(1)) {
					mc.CorruptCounter(1, sib, st.GroupMax(1, node)+128+amt)
				}
				lo := mc.L1Table().LiveValues()[0] // ascending
				mc.CorruptCounter(1, l0, lo-min(lo, 2+amt))
				mc.Write(st.DataBlockAddr(b))
				mc.EvictCounterLine(st.NodeAddr(0, l0))
			}
		}
	})
}

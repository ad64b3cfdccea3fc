// Package otp derives the one-time pads that encrypt memory blocks and
// authenticate them, in both the baseline SGX construction (paper Figure 2)
// and the RMCC split construction (paper Figure 11).
//
// Baseline: each 128-bit word w of a 64-byte block gets
//
//	OTP_w = AES_Kenc(µ ‖ addr ‖ w ‖ counter)
//
// so the counter and address enter a single AES call and nothing is
// reusable across blocks. The MAC pad similarly folds addr and counter into
// one AES call under a different key.
//
// RMCC: the counter contribution and address contribution are computed by
// two *independent* AES calls and combined by a truncated carry-less
// multiply:
//
//	ctrRes  = AES_Kc(0^72 ‖ counter56)          — memoizable, one per value
//	addrRes = AES_Ka(addr64 ‖ w ‖ 0^62)         — always fast (addr known)
//	OTP_w   = TruncMiddle(ctrRes ⊗ addrRes)
//
// Encryption and MAC use different counter keys and different address keys,
// so a memoization-table entry stores two 16-byte counter-only results
// (paper §IV-E).
package otp

import (
	"rmcc/internal/crypto/aes"
	"rmcc/internal/crypto/clmul"
	"rmcc/internal/crypto/gf"
)

// Word128 aliases the 128-bit limb pair used throughout the OTP unit.
type Word128 = clmul.Word128

// WordsPerBlock is the number of 128-bit words in a 64-byte block, each of
// which needs its own pad word.
const WordsPerBlock = 4

// Pad is the 512-bit encryption pad for one 64-byte block.
type Pad [WordsPerBlock]Word128

// XorBlock XORs the pad into a block of eight 64-bit words in place,
// encrypting plaintext or decrypting ciphertext (the operation is an
// involution).
func (p *Pad) XorBlock(block *[8]uint64) {
	for w := 0; w < WordsPerBlock; w++ {
		block[2*w] ^= p[w].Hi
		block[2*w+1] ^= p[w].Lo
	}
}

// CtrResult is the counter-only AES contribution for one counter value:
// one 128-bit result for the encryption pad and one for the MAC pad. This
// pair is exactly what an RMCC memoization-table entry stores (32 B).
type CtrResult struct {
	Enc Word128
	Mac Word128
}

// Keys bundles all secret key material for one protection domain.
type Keys struct {
	// Baseline single-AES keys.
	BaselineEnc []byte
	BaselineMac []byte
	// RMCC split keys: separate counter-side and address-side keys for
	// encryption vs MAC so the two pads differ for the same block (§IV-C5).
	CtrEnc  []byte
	CtrMac  []byte
	AddrEnc []byte
	AddrMac []byte
	// Dot-product keys for the MAC body.
	Mac gf.Keys
}

// DeriveKeys expands a master seed into the full set of 16-byte (AES-128)
// keys. Keys are derived by encrypting distinct constants under the master
// key, a standard KDF shape that keeps the package dependency-free.
func DeriveKeys(master [16]byte) Keys {
	kdf := aes.MustNew(master[:])
	derive := func(label byte) []byte {
		var in [16]byte
		in[0] = label
		out := make([]byte, 16)
		kdf.Encrypt(out, in[:])
		return out
	}
	var k Keys
	k.BaselineEnc = derive(1)
	k.BaselineMac = derive(2)
	k.CtrEnc = derive(3)
	k.CtrMac = derive(4)
	k.AddrEnc = derive(5)
	k.AddrMac = derive(6)
	for i := range k.Mac {
		var in, out [16]byte
		in[0] = 7
		in[1] = byte(i)
		kdf.Encrypt(out[:], in[:])
		k.Mac[i] = uint64(out[0])<<56 | uint64(out[1])<<48 | uint64(out[2])<<40 |
			uint64(out[3])<<32 | uint64(out[4])<<24 | uint64(out[5])<<16 |
			uint64(out[6])<<8 | uint64(out[7])
		if k.Mac[i] == 0 {
			k.Mac[i] = 1
		}
	}
	return k
}

// Unit computes pads. It is safe for concurrent use after construction
// because the underlying ciphers are read-only once expanded.
type Unit struct {
	baselineEnc *aes.Cipher
	baselineMac *aes.Cipher
	ctrEnc      *aes.Cipher
	ctrMac      *aes.Cipher
	addrEnc     *aes.Cipher
	addrMac     *aes.Cipher
	macKeys     gf.Keys
}

// NewUnit builds an OTP unit from derived keys. keyLen 16 selects AES-128,
// 32 selects AES-256 (the paper's 15 ns vs 22 ns sensitivity point).
func NewUnit(k Keys) (*Unit, error) {
	mk := func(key []byte) (*aes.Cipher, error) { return aes.New(key) }
	var u Unit
	var err error
	if u.baselineEnc, err = mk(k.BaselineEnc); err != nil {
		return nil, err
	}
	if u.baselineMac, err = mk(k.BaselineMac); err != nil {
		return nil, err
	}
	if u.ctrEnc, err = mk(k.CtrEnc); err != nil {
		return nil, err
	}
	if u.ctrMac, err = mk(k.CtrMac); err != nil {
		return nil, err
	}
	if u.addrEnc, err = mk(k.AddrEnc); err != nil {
		return nil, err
	}
	if u.addrMac, err = mk(k.AddrMac); err != nil {
		return nil, err
	}
	u.macKeys = k.Mac
	return &u, nil
}

// MustNewUnit is NewUnit but panics on error.
func MustNewUnit(k Keys) *Unit {
	u, err := NewUnit(k)
	if err != nil {
		panic(err)
	}
	return u
}

// MacKeys exposes the dot-product key vector for MAC computation.
func (u *Unit) MacKeys() *gf.Keys { return &u.macKeys }

// CounterMask keeps counters within the architectural 56-bit width.
const CounterMask = (uint64(1) << 56) - 1

// --- RMCC split path (Figure 11) ---

// CounterOnly computes the memoizable counter-only AES results for a
// counter value: AES over (0^72 ‖ ctr56) under the encryption-side and
// MAC-side counter keys. This is the slow (10/14-round) computation the
// memoization table short-circuits.
func (u *Unit) CounterOnly(ctr uint64) CtrResult {
	ctr &= CounterMask
	var r CtrResult
	r.Enc.Hi, r.Enc.Lo = u.ctrEnc.EncryptWords(0, ctr)
	r.Mac.Hi, r.Mac.Lo = u.ctrMac.EncryptWords(0, ctr)
	return r
}

// addrInput forms the address-side AES input: the 64-bit block address in
// the high limb (addr64 ‖ 0^64 per §IV-D1), with the 2-bit word index mixed
// into the otherwise-zero low limb so each 128-bit word of the block gets a
// distinct pad.
func addrInput(addr uint64, word int) (hi, lo uint64) {
	return addr, uint64(word)
}

// AddressOnlyEnc computes the encryption-side address-only AES result for
// one 128-bit word of the block at addr. The MC can always compute this
// immediately: addresses never miss.
func (u *Unit) AddressOnlyEnc(addr uint64, word int) Word128 {
	hi, lo := addrInput(addr, word)
	var w Word128
	w.Hi, w.Lo = u.addrEnc.EncryptWords(hi, lo)
	return w
}

// AddressOnlyMac computes the MAC-side address-only AES result for the
// block at addr.
func (u *Unit) AddressOnlyMac(addr uint64) Word128 {
	hi, lo := addrInput(addr, 0)
	var w Word128
	w.Hi, w.Lo = u.addrMac.EncryptWords(hi, lo)
	return w
}

// Combine merges a counter-only result and an address-only result into a
// pad word by truncated carry-less multiplication (the 1 ns hardware step).
func Combine(ctrRes, addrRes Word128) Word128 {
	return clmul.MulTrunc(ctrRes, addrRes)
}

// RMCCPad derives the full 512-bit encryption pad for a block from a
// (possibly memoized) counter-only result.
func (u *Unit) RMCCPad(ctrRes CtrResult, addr uint64) Pad {
	var p Pad
	for w := 0; w < WordsPerBlock; w++ {
		p[w] = Combine(ctrRes.Enc, u.AddressOnlyEnc(addr, w))
	}
	return p
}

// RMCCMacOTP derives the 56-bit MAC pad contribution for a block.
func (u *Unit) RMCCMacOTP(ctrRes CtrResult, addr uint64) uint64 {
	w := Combine(ctrRes.Mac, u.AddressOnlyMac(addr))
	return gf.FoldOTP(w.Hi, w.Lo)
}

// --- Baseline SGX path (Figure 2) ---

// mu is the fixed domain-separation constant in the baseline AES input.
const mu = 0x5A

// BaselinePad derives the 512-bit encryption pad with one AES call per
// 128-bit word, each taking (µ ‖ addr ‖ wordIndex ‖ counter) as input.
func (u *Unit) BaselinePad(addr, ctr uint64) Pad {
	var p Pad
	for w := 0; w < WordsPerBlock; w++ {
		hi := uint64(mu)<<56 | (addr>>8)&0x00ffffffffffffff
		lo := (addr&0xff)<<56 | uint64(w)<<54 | (ctr & CounterMask)
		var pw Word128
		pw.Hi, pw.Lo = u.baselineEnc.EncryptWords(hi, lo)
		p[w] = pw
	}
	return p
}

// BaselineMacOTP derives the 56-bit MAC pad contribution with a single AES
// call under the MAC key.
func (u *Unit) BaselineMacOTP(addr, ctr uint64) uint64 {
	hi := uint64(mu)<<56 | (addr>>8)&0x00ffffffffffffff
	lo := (addr&0xff)<<56 | (ctr & CounterMask)
	h, l := u.baselineMac.EncryptWords(hi, lo)
	return gf.FoldOTP(h, l)
}

// --- MAC over a block ---

// BlockMAC computes the stored 56-bit MAC for a block's eight words given
// the 56-bit OTP contribution (from RMCCMacOTP or BaselineMacOTP).
func (u *Unit) BlockMAC(words *[8]uint64, otp56 uint64) uint64 {
	return gf.MAC(words, &u.macKeys, otp56)
}

package otp_test

import (
	"fmt"

	"rmcc/internal/crypto/otp"
)

// Example shows the RMCC split-OTP construction (paper Figure 11): the
// counter-only AES result is the memoizable half; combined with the
// always-fast address-only result it yields the pad that encrypts a block.
func Example() {
	unit := otp.MustNewUnit(otp.DeriveKeys([16]byte{1, 2, 3}))

	// The slow, memoizable part: one AES pair per counter *value*.
	ctrRes := unit.CounterOnly(42)

	// Encrypt and decrypt a block (XOR with the pad is an involution).
	block := [8]uint64{0xdeadbeef, 1, 2, 3, 4, 5, 6, 7}
	orig := block
	pad := unit.RMCCPad(ctrRes, 0x1000)
	pad.XorBlock(&block) // encrypt
	encryptedDiffers := block != orig
	pad.XorBlock(&block) // decrypt
	fmt.Println("ciphertext differs:", encryptedDiffers)
	fmt.Println("round trip ok:", block == orig)

	// The MAC binds contents, address, and counter.
	mac := unit.BlockMAC(&block, unit.RMCCMacOTP(ctrRes, 0x1000))
	tampered := block
	tampered[0] ^= 1
	fmt.Println("tamper detected:", unit.BlockMAC(&tampered, unit.RMCCMacOTP(ctrRes, 0x1000)) != mac)
	// Output:
	// ciphertext differs: true
	// round trip ok: true
	// tamper detected: true
}

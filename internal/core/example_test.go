package core_test

import (
	"fmt"

	"rmcc/internal/core"
	"rmcc/internal/crypto/otp"
)

// Example walks the paper's Figure 7: a block's counter climbs through
// consecutive memoized values across writebacks, staying covered the whole
// way.
func Example() {
	unit := otp.MustNewUnit(otp.DeriveKeys([16]byte{7}))
	table := core.MustNewTable(core.DefaultConfig(),
		func(v uint64) otp.CtrResult { return unit.CounterOnly(v) }, nil)

	ctr := uint64(23)
	for w := 1; w <= 3; w++ {
		next, _ := table.NearestMemoized(ctr)
		fmt.Printf("writeback %d: %d -> %d (memoized: %v)\n",
			w, ctr, next, table.Contains(next))
		ctr = next
	}
	// Output:
	// writeback 1: 23 -> 24 (memoized: true)
	// writeback 2: 24 -> 25 (memoized: true)
	// writeback 3: 25 -> 26 (memoized: true)
}

package core

// Area model from the paper's §IV-E: the memoization table stores 32 B of
// AES results per entry (16 B decrypt + 16 B MAC pads), the tag/frequency
// machinery needs 16 B counters for current groups, recently evicted
// groups, and new-group candidates, and the truncated 128×128→128
// carry-less multiplier costs the equivalent of ~4 KB of SRAM (12 K XOR
// gates at 2× an SRAM cell plus 16 K inverters at half a cell).

// EntryBytes is the data-array cost per memoized value (§IV-E).
const EntryBytes = 32

// clmulEquivalentBytes is the carry-less multiplier's SRAM-equivalent area.
const clmulEquivalentBytes = 4 << 10

// DataArrayBytes returns the memoization data-array size (4 KB for the
// paper's 128 entries).
func (c Config) DataArrayBytes() int { return c.Entries() * EntryBytes }

// TagArrayBytes returns the tag/frequency storage: 16 B per tracked group
// counter across live groups, shadow groups, and the watchpoint candidates
// (1 KB in the paper's configuration: 64 16-byte counters).
func (c Config) TagArrayBytes() int {
	watchpoints := 17 + 14 // X+1+8i and X+129+2^j monitors
	return (c.Groups + shadowGroups + watchpoints + 1) * 16
}

// AreaBytes returns the SRAM-equivalent area of one table including its
// share of the carry-less multiplier, matching §IV-E's ~9 KB total for the
// paper configuration (4 KB data + ~1 KB tags + 4 KB multiplier).
func (c Config) AreaBytes() int {
	return c.DataArrayBytes() + c.TagArrayBytes() + clmulEquivalentBytes
}

// CarrylessMultiplierGateDepth returns the §IV-E critical-path estimate:
// log2(128) XOR levels plus log4(128) inverter levels.
func CarrylessMultiplierGateDepth() (xors, inverters int) { return 7, 3 }

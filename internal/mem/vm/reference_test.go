package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"rmcc/internal/rng"
	"rmcc/internal/snapshot"
)

// refMapper is the literal model the open-addressed Mapper is checked
// against: the same shuffled free list, with the page table a Go map.
type refMapper struct {
	pageBytes uint64
	pageShift uint
	table     map[uint64]uint64 // vpage -> ppage
	freePages []uint64
	nextFree  int
}

func newRef(physBytes, pageBytes, seed uint64) *refMapper {
	m := &refMapper{pageBytes: pageBytes, table: make(map[uint64]uint64)}
	for 1<<m.pageShift != pageBytes {
		m.pageShift++
	}
	m.freePages = make([]uint64, physBytes/pageBytes)
	for i := range m.freePages {
		m.freePages[i] = uint64(i)
	}
	r := rng.New(seed)
	r.Shuffle(len(m.freePages), func(i, j int) {
		m.freePages[i], m.freePages[j] = m.freePages[j], m.freePages[i]
	})
	return m
}

// Translate returns false, mapping nothing, when a new page finds every
// physical page mapped.
func (m *refMapper) Translate(vaddr uint64) (uint64, bool) {
	vpage := vaddr >> m.pageShift
	ppage, ok := m.table[vpage]
	if !ok {
		if m.nextFree >= len(m.freePages) {
			return 0, false
		}
		ppage = m.freePages[m.nextFree]
		m.nextFree++
		m.table[vpage] = ppage
	}
	return ppage<<m.pageShift | vaddr&(m.pageBytes-1), true
}

func (m *refMapper) MappedPages() int { return len(m.table) }

func (m *refMapper) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(m.nextFree))
	keys := make([]uint64, 0, len(m.table))
	for v := range m.table {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U64(uint64(len(keys)))
	for _, v := range keys {
		e.U64(v)
		e.U64(m.table[v])
	}
}

func encode(s interface{ EncodeState(*snapshot.Enc) }) []byte {
	var e snapshot.Enc
	s.EncodeState(&e)
	return e.Data()
}

// geometry is a physical memory size and page size.
type geometry struct{ physBytes, pageBytes uint64 }

func (g geometry) String() string {
	return fmt.Sprintf("%dx%dB", g.physBytes/g.pageBytes, g.pageBytes)
}

// runDiff drives a Mapper and the reference through vaddrs and requires
// the same translation or exhaustion and the same page count after every
// op, and the same snapshot bytes every 1000 ops and at the end. Halfway
// through, a mapper restored from the reference's bytes joins and must
// continue identically. It returns how many translations ran out of
// memory and how many pages the reference mapped.
func runDiff(t testing.TB, g geometry, seed uint64, vaddrs []uint64) (exhausted, mapped int) {
	ref := newRef(g.physBytes, g.pageBytes, seed)
	mappers := []*Mapper{New(g.physBytes, g.pageBytes, seed)}
	check := func(op int) {
		want := encode(ref)
		for mi, m := range mappers {
			if !bytes.Equal(encode(m), want) {
				t.Fatalf("%v op %d, mapper %d: snapshot bytes differ from the reference", g, op, mi)
			}
		}
	}
	for op, v := range vaddrs {
		if op == len(vaddrs)/2 {
			restored := New(g.physBytes, g.pageBytes, seed)
			if err := restored.DecodeState(snapshot.NewDec(encode(ref))); err != nil {
				t.Fatalf("%v: decode reference state: %v", g, err)
			}
			mappers = append(mappers, restored)
			check(op)
		}
		want, ok := ref.Translate(v)
		if !ok {
			exhausted++
		}
		for mi, m := range mappers {
			got, err := m.Translate(v)
			if ok && (err != nil || got != want) || !ok && !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("%v op %d Translate(%#x), mapper %d: (%#x, %v), reference (%#x, %v)",
					g, op, v, mi, got, err, want, ok)
			}
			if m.MappedPages() != ref.MappedPages() {
				t.Fatalf("%v op %d, mapper %d: %d pages mapped, reference %d",
					g, op, mi, m.MappedPages(), ref.MappedPages())
			}
		}
		if op%1000 == 999 {
			check(op)
		}
	}
	check(len(vaddrs))
	return exhausted, ref.MappedPages()
}

// TestDifferentialAgainstReference runs seeded streams through runDiff:
// dense small vpages, sparse vpages over the whole 64-bit space of 2 MiB
// pages, and streams that touch more pages than memory has, so the
// mapper runs out at exactly its last physical page.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 20000
	for i, tc := range []struct {
		name     string
		g        geometry
		pages    uint64 // distinct vpages drawn from; 0: any vpage
		exhausts bool
	}{
		{"dense-4K", geometry{4096 << 12, 4 << 10}, 3000, false},
		{"dense-2M", geometry{1536 << 21, 2 << 20}, 1536, false},
		{"sparse-2M", geometry{16384 << 21, 2 << 20}, 0, false},
		{"exhaust-dense-2M", geometry{9 << 21, 2 << 20}, 40, true},
		{"exhaust-sparse-4K", geometry{1000 << 12, 4 << 10}, 0, true},
		{"exhaust-one-page", geometry{4 << 10, 4 << 10}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(2000 + i))
			shift := uint(0)
			for 1<<shift != tc.g.pageBytes {
				shift++
			}
			// Half the ops revisit an earlier address's page, so pages are
			// both first touched and found again.
			vaddrs := make([]uint64, ops)
			for j := range vaddrs {
				var vpage uint64
				switch {
				case j > 0 && r.Uint64n(2) == 0:
					vpage = vaddrs[r.Uint64n(uint64(j))] >> shift
				case tc.pages == 0:
					vpage = r.Uint64() >> shift
				default:
					vpage = r.Uint64n(tc.pages)
				}
				vaddrs[j] = vpage<<shift | r.Uint64n(tc.g.pageBytes)
			}
			exhausted, mapped := runDiff(t, tc.g, r.Uint64(), vaddrs)
			if (exhausted > 0) != tc.exhausts {
				t.Fatalf("%d translations ran out of memory, want some: %v", exhausted, tc.exhausts)
			}
			if pages := int(tc.g.physBytes / tc.g.pageBytes); tc.exhausts && mapped != pages {
				t.Fatalf("ran out with %d of %d pages mapped", mapped, pages)
			}
		})
	}
}

// fuzzGeometries are the mapper shapes FuzzMapperAgainstReference picks
// from: the upload sessions' nine 2 MiB pages, a 4 KiB-page memory, one
// page, and none.
var fuzzGeometries = []geometry{
	{9 << 21, 2 << 20},
	{64 << 12, 4 << 10},
	{1 << 12, 4 << 10},
	{0, 4 << 10},
}

// FuzzMapperAgainstReference runs runDiff on fuzzed address streams. The
// first byte picks a geometry and the second the seed; then each op is
// one byte, where 0xff takes the next 8 bytes as a raw virtual address
// and any other value b is an address in vpage b, which with at most 64
// physical pages both revisits pages and runs memory out.
func FuzzMapperAgainstReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 1})
	f.Add([]byte{1, 7, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3})
	f.Add([]byte{2, 0, 5, 5, 6, 5})
	f.Add([]byte{3, 9, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		seed := uint64(data[1])
		var vaddrs []uint64
		for data = data[2:]; len(data) > 0; {
			b := data[0]
			data = data[1:]
			if b == 0xff && len(data) >= 8 {
				vaddrs = append(vaddrs, binary.LittleEndian.Uint64(data))
				data = data[8:]
				continue
			}
			vaddrs = append(vaddrs, uint64(b)*g.pageBytes+uint64(b)*7%g.pageBytes)
		}
		runDiff(t, g, seed, vaddrs)
	})
}

// TestDecodeStateRejectsImpossibleTables: a table the mapper never
// produces is refused as corrupt rather than loaded into a mapper that
// would translate outside physical memory.
func TestDecodeStateRejectsImpossibleTables(t *testing.T) {
	g := geometry{9 << 21, 2 << 20}
	ref := newRef(g.physBytes, g.pageBytes, 4)
	for _, v := range []uint64{5 << 21, 1 << 21, 7 << 21} {
		ref.Translate(v)
	}
	free := ref.freePages
	table := func(cursor uint64, entries ...uint64) []byte {
		var e snapshot.Enc
		e.U64(cursor)
		e.U64(uint64(len(entries) / 2))
		for _, v := range entries {
			e.U64(v)
		}
		return e.Data()
	}
	if !bytes.Equal(table(3, 1, free[1], 5, free[0], 7, free[2]), encode(ref)) {
		t.Fatal("table helper does not encode as the reference does")
	}
	for name, b := range map[string][]byte{
		"ppage past memory":     table(3, 1, free[1], 5, 1<<30, 7, free[2]),
		"unallocated ppage":     table(3, 1, free[1], 5, free[3], 7, free[2]),
		"ppage twice":           table(3, 1, free[1], 5, free[1], 7, free[2]),
		"vpage twice":           table(3, 1, free[1], 5, free[0], 5, free[2]),
		"vpages out of order":   table(3, 5, free[0], 1, free[1], 7, free[2]),
		"vpage past 64 bits":    table(1, 1<<43, free[0]),
		"cursor past memory":    table(10),
		"length without cursor": table(2, 1, free[1], 5, free[0], 7, free[2]),
	} {
		if err := New(g.physBytes, g.pageBytes, 4).DecodeState(snapshot.NewDec(b)); !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
	m := New(g.physBytes, g.pageBytes, 4)
	if err := m.DecodeState(snapshot.NewDec(table(1, 1<<43-1, free[0]))); err != nil {
		t.Fatalf("highest vpage refused: %v", err)
	}
	if p, err := m.Translate(^uint64(0)); err != nil || p != free[0]<<21|(1<<21-1) {
		t.Fatalf("Translate(2^64-1) after restore = %#x, %v", p, err)
	}
}

package sidechan

import (
	"math"
	"sort"

	"rmcc/internal/obs"
)

// AnalyzerConfig parameterizes the observable binning. The defaults match
// the lifetime hierarchy's counter-cache geometry and the prime+probe
// adversary's class alphabet.
type AnalyzerConfig struct {
	// Sets and SetShift bin counter-cache miss addresses into sets:
	// set = (addr >> SetShift) % Sets. Defaults model the 32 KB / 32-way
	// counter cache under Morphable (16 sets, 8 KiB of data per counter
	// block → shift 13).
	Sets     int
	SetShift uint
	// PageBins and PageShift bin write-event addresses by page offset:
	// bin = (addr >> PageShift) % PageBins (default: 4 KiB pages in
	// 512-byte quanta → 8 bins, shift 9).
	PageBins  int
	PageShift uint
	// BandWidth and Bands bin memo-insertion offsets (start − previous
	// table max) into bands of BandWidth values; offsets beyond
	// Bands×BandWidth fall into a catch-all band.
	BandWidth uint64
	Bands     int
	// TableID selects which memoization table's insertions to watch
	// (0 = L0 data counters, 1 = L1 tree counters).
	TableID uint64
}

// DefaultAnalyzerConfig matches the lifetime hierarchy and the PrimeProbe
// adversary.
func DefaultAnalyzerConfig() AnalyzerConfig {
	return AnalyzerConfig{
		Sets:      ctrSets,
		SetShift:  13,
		PageBins:  mjPage / mjOffset,
		PageShift: 9,
		BandWidth: ppPushDelta,
		Bands:     ppClasses,
		TableID:   0,
	}
}

// epochFeatures is one attacker epoch's binned observables.
type epochFeatures struct {
	setMiss []uint64 // counter-cache misses per set
	pageOff []uint64 // write events per page-offset bin
	bands   []uint64 // memo insertions per offset band (last = catch-all)
	inserts uint64
	events  uint64
}

func newEpochFeatures(cfg AnalyzerConfig) epochFeatures {
	return epochFeatures{
		setMiss: make([]uint64, cfg.Sets),
		pageOff: make([]uint64, cfg.PageBins),
		bands:   make([]uint64, cfg.Bands+1),
	}
}

func (f *epochFeatures) reset() {
	for i := range f.setMiss {
		f.setMiss[i] = 0
	}
	for i := range f.pageOff {
		f.pageOff[i] = 0
	}
	for i := range f.bands {
		f.bands[i] = 0
	}
	f.inserts = 0
	f.events = 0
}

// Analyzer consumes the engine's event stream (attach with
// obs.Tracer.SetSink) and accumulates per-epoch observable histograms.
// OnEvent is allocation-free: all bins are preallocated, so tapping a
// live simulation adds no allocations to the hot path. CloseEpoch and
// Report are driver-side and may allocate. Not safe for concurrent use
// (like the tracer it taps).
type Analyzer struct {
	cfg     AnalyzerConfig
	cur     epochFeatures
	epochs  []epochFeatures
	classes []int
}

// NewAnalyzer builds an analyzer (zero-value config fields take their
// defaults).
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	def := DefaultAnalyzerConfig()
	if cfg.Sets <= 0 {
		cfg.Sets, cfg.SetShift = def.Sets, def.SetShift
	}
	if cfg.PageBins <= 0 {
		cfg.PageBins, cfg.PageShift = def.PageBins, def.PageShift
	}
	if cfg.Bands <= 0 || cfg.BandWidth == 0 {
		cfg.Bands, cfg.BandWidth = def.Bands, def.BandWidth
	}
	return &Analyzer{cfg: cfg, cur: newEpochFeatures(cfg)}
}

// OnEvent implements obs.EventSink.
func (a *Analyzer) OnEvent(e obs.Event) {
	a.cur.events++
	switch e.Kind {
	case obs.EvCtrCacheMiss:
		a.cur.setMiss[(e.Addr>>a.cfg.SetShift)%uint64(a.cfg.Sets)]++
		if e.V2 == 1 {
			a.cur.pageOff[(e.Addr>>a.cfg.PageShift)%uint64(a.cfg.PageBins)]++
		}
	case obs.EvCtrCacheHit:
		if e.V2 == 1 {
			a.cur.pageOff[(e.Addr>>a.cfg.PageShift)%uint64(a.cfg.PageBins)]++
		}
	case obs.EvMemoInsert:
		if e.Addr != a.cfg.TableID {
			return
		}
		a.cur.inserts++
		band := a.cfg.Bands // catch-all
		if e.V1 > e.V2 {
			if b := (e.V1 - e.V2 - 1) / a.cfg.BandWidth; b < uint64(a.cfg.Bands) {
				band = int(b)
			}
		}
		a.cur.bands[band]++
	}
}

// CloseEpoch snapshots the current epoch's observables under the secret
// class the adversary used, then clears the accumulators for the next
// epoch.
func (a *Analyzer) CloseEpoch(class int) {
	snap := newEpochFeatures(a.cfg)
	copy(snap.setMiss, a.cur.setMiss)
	copy(snap.pageOff, a.cur.pageOff)
	copy(snap.bands, a.cur.bands)
	snap.inserts = a.cur.inserts
	snap.events = a.cur.events
	a.epochs = append(a.epochs, snap)
	a.classes = append(a.classes, class)
	a.cur.reset()
}

// Epochs returns the number of closed epochs.
func (a *Analyzer) Epochs() int { return len(a.epochs) }

// ChannelEstimate is one observable channel's leakage estimate across the
// closed epochs.
type ChannelEstimate struct {
	// Channel names the observable: "memo-insert" (argmax insertion-offset
	// band, or "none" when the epoch saw no insertion), "ctr-sets" (argmax
	// counter-cache miss set), or "pg-offset" (argmax write page-offset
	// bin).
	Channel string
	// Bits is the Miller–Madow-corrected plug-in mutual information
	// between secret class and per-epoch symbol, in bits per epoch
	// (floored at 0). BitsRaw is the uncorrected plug-in estimate.
	Bits, BitsRaw float64
	// Accuracy is the MAP classifier's training accuracy (an optimistic
	// attacker bound); Chance is the majority-class baseline.
	Accuracy, Chance float64
	// Classes/Symbols are the distinct observed counts; Epochs the sample
	// size.
	Classes, Symbols, Epochs int
}

// Report holds every channel's estimate.
type Report struct {
	Channels []ChannelEstimate
}

// Channel returns the named estimate.
func (r Report) Channel(name string) (ChannelEstimate, bool) {
	for _, c := range r.Channels {
		if c.Channel == name {
			return c, true
		}
	}
	return ChannelEstimate{}, false
}

// Report reduces the closed epochs to per-channel leakage estimates.
//
// Each channel's per-epoch symbol is the argmax of the epoch's histogram
// after template subtraction: the per-bin minimum across all epochs is
// subtracted first, cancelling the attacker's own constant-per-epoch
// traffic (e.g. the conflict-sweep misses that always land in the
// victim's counter-cache set) so only the secret-dependent residual
// competes. This is the standard self-calibration a real prime+probe
// attacker performs against its own noise floor.
func (a *Analyzer) Report() Report {
	symbolize := func(f func(epochFeatures) []uint64) []int {
		rows := make([][]uint64, len(a.epochs))
		for i, e := range a.epochs {
			rows[i] = f(e)
		}
		return templateSymbols(rows)
	}
	channels := []struct {
		name    string
		symbols []int
	}{
		{"memo-insert", func() []int {
			syms := symbolize(func(e epochFeatures) []uint64 { return e.bands })
			for i, e := range a.epochs {
				if e.inserts == 0 {
					syms[i] = len(e.bands) + 1 // dedicated "none" symbol
				}
			}
			return syms
		}()},
		{"ctr-sets", symbolize(func(e epochFeatures) []uint64 { return e.setMiss })},
		{"pg-offset", symbolize(func(e epochFeatures) []uint64 { return e.pageOff })},
	}
	rep := Report{}
	for _, ch := range channels {
		raw, corrected := MutualInformation(a.classes, ch.symbols)
		est := ChannelEstimate{
			Channel: ch.name,
			Bits:    corrected,
			BitsRaw: raw,
			Epochs:  len(a.classes),
		}
		est.Accuracy, est.Chance = mapAccuracy(a.classes, ch.symbols)
		est.Classes = distinct(a.classes)
		est.Symbols = distinct(ch.symbols)
		rep.Channels = append(rep.Channels, est)
	}
	return rep
}

// templateSymbols subtracts the per-bin minimum across epochs from each
// epoch's histogram and returns per-epoch argmax symbols (lowest index on
// ties; the bin count itself when the residual is all-zero, a dedicated
// "quiet" symbol).
func templateSymbols(rows [][]uint64) []int {
	out := make([]int, len(rows))
	if len(rows) == 0 {
		return out
	}
	base := make([]uint64, len(rows[0]))
	copy(base, rows[0])
	for _, r := range rows[1:] {
		for i, v := range r {
			if v < base[i] {
				base[i] = v
			}
		}
	}
	for e, r := range rows {
		best, bestV := len(r), uint64(0)
		for i, v := range r {
			if d := v - base[i]; d > bestV {
				best, bestV = i, d
			}
		}
		out[e] = best
	}
	return out
}

func distinct(xs []int) int {
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// MutualInformation returns the plug-in mutual information between the
// two paired sequences in bits, raw and with the Miller–Madow bias
// correction (Kx−1)(Ky−1)/(2N ln 2) subtracted and floored at 0. The
// plug-in estimate is biased upward on finite samples — an independent
// pair reads ≈ the correction term — so the corrected value is the
// headline number and small corrected values mean "no detectable
// leakage at this sample size".
func MutualInformation(xs, ys []int) (raw, corrected float64) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0, 0
	}
	joint := map[[2]int]float64{}
	px := map[int]float64{}
	py := map[int]float64{}
	inv := 1 / float64(n)
	for i := range xs {
		joint[[2]int{xs[i], ys[i]}] += inv
		px[xs[i]] += inv
		py[ys[i]] += inv
	}
	if len(px) == 1 || len(py) == 1 {
		return 0, 0 // degenerate marginal: MI is exactly zero
	}
	// Sum in key order: map order would make the float sum, and so the
	// reported bits, vary in the last place from run to run.
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		p := joint[k]
		raw += p * math.Log2(p/(px[k[0]]*py[k[1]]))
	}
	if raw < 0 {
		raw = 0 // guard tiny negative float error
	}
	mm := float64(len(px)-1) * float64(len(py)-1) / (2 * float64(n) * math.Ln2)
	corrected = raw - mm
	if corrected < 0 {
		corrected = 0
	}
	return raw, corrected
}

// mapAccuracy is the maximum-a-posteriori classifier's training accuracy:
// for each symbol predict its most frequent class. Chance is the majority
// class frequency (what a symbol-blind classifier achieves).
func mapAccuracy(classes, symbols []int) (acc, chance float64) {
	n := len(classes)
	if n == 0 {
		return 0, 0
	}
	bySym := map[int]map[int]int{}
	byClass := map[int]int{}
	for i := range classes {
		m := bySym[symbols[i]]
		if m == nil {
			m = map[int]int{}
			bySym[symbols[i]] = m
		}
		m[classes[i]]++
		byClass[classes[i]]++
	}
	correct := 0
	for _, m := range bySym {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	majority := 0
	for _, c := range byClass {
		if c > majority {
			majority = c
		}
	}
	return float64(correct) / float64(n), float64(majority) / float64(n)
}

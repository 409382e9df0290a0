package wrapper

import (
	"slices"
	"sync"
	"sync/atomic"

	"multisite/internal/soc"
)

// MaxTableWidth caps the per-module design table. No realistic ATE in the
// paper's evaluation offers more than 1024 channels (512 TAM wires), so
// designs are never queried beyond this width; times saturate at the cap.
const MaxTableWidth = 512

// Designer memoizes wrapper designs per module. Architecture optimization
// (Step 1 fitting, Step 2 widening, baseline packing) queries module test
// times at many widths; the Designer computes the per-chain-count time
// table once per module and answers every width query from the prefix
// minimum of that table. The concrete Design at a width is built only when
// Fit asks for it, and memoized per chain count.
//
// A Designer is safe for concurrent use: queries on an already-built
// module table are lock-free, so parallel architecture optimizations of
// the same SOC (the sweep engine's common case) do not contend.
type Designer struct {
	soc *soc.SOC
	// mu serializes table builds only; lookups load the slot atomically.
	mu sync.Mutex
	// tables[mi] is module mi's immutable *moduleTable, built lazily on
	// first query.
	tables []atomic.Pointer[moduleTable]
}

// moduleTable is the per-module time table; immutable once published
// apart from the designs memo, whose slots are filled at most once.
type moduleTable struct {
	// times[w-1] is the best test time at TAM width w: the prefix minimum
	// of the per-chain-count design times, for w in
	// 1..min(MaxUsefulWidth, MaxTableWidth). Architecture optimization's
	// inner loops index this flat table instead of copying Design structs.
	times []int64
	// best[w-1] is the chain count of the best design among chain counts
	// 1..w (ties: fewest chains). best, lengths and designs are nil for a
	// module without patterns.
	best []int32
	// lengths are the module's scan chain lengths, longest first.
	lengths []int
	// designs[c-1] is the design with exactly c wrapper chains, built by
	// fitChains on the first Fit that selects chain count c.
	designs []atomic.Pointer[Design]
}

// NewDesigner returns a Designer for the given SOC.
func NewDesigner(s *soc.SOC) *Designer {
	return &Designer{soc: s, tables: make([]atomic.Pointer[moduleTable], len(s.Modules))}
}

// designers caches one Designer per SOC value so that repeated
// architecture designs for the same chip (parameter sweeps, benchmarks)
// reuse the wrapper-fit tables.
var designers sync.Map // *soc.SOC -> *Designer

// For returns the cached Designer for the SOC, creating it on first use.
// The SOC must not be mutated after the first call.
func For(s *soc.SOC) *Designer {
	if d, ok := designers.Load(s); ok {
		return d.(*Designer)
	}
	d, _ := designers.LoadOrStore(s, NewDesigner(s))
	return d.(*Designer)
}

// SOC returns the SOC this designer was built for.
func (d *Designer) SOC() *soc.SOC { return d.soc }

func (d *Designer) table(mi int) *moduleTable {
	if t := d.tables[mi].Load(); t != nil {
		return t
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.tables[mi].Load(); t != nil {
		return t
	}
	t := buildTable(&d.soc.Modules[mi])
	d.tables[mi].Store(t)
	return t
}

// buildTable computes the module's best time per width without building
// any Design. The time of the c-chain design fitChains would build depends
// only on its maxima: the LPT partition's longest bin and, for the wrapper
// cells, the water level, which waterLevel gives in closed form.
func buildTable(m *soc.Module) *moduleTable {
	cMax := min(MaxUsefulWidth(m), MaxTableWidth)
	t := &moduleTable{times: make([]int64, cMax)}
	if m.Patterns == 0 {
		return t // every width tests in zero cycles; Fit needs no design
	}
	t.best = make([]int32, cMax)
	t.lengths = m.SortedChainLengths()
	t.designs = make([]atomic.Pointer[Design], cMax)
	sumScan, longest := 0, 0
	for _, l := range t.lengths {
		sumScan += l
		longest = max(longest, l)
	}
	scan := make([]int, min(len(t.lengths), cMax))
	for c := 1; c <= cMax; c++ {
		// Once every scan chain has a bin of its own the longest bin is
		// the longest chain; below that, run fitChains' LPT.
		maxScan := longest
		if c < len(t.lengths) {
			bins := scan[:c]
			clear(bins)
			for _, l := range t.lengths {
				argmin := 0
				for i := 1; i < c; i++ {
					if bins[i] < bins[argmin] {
						argmin = i
					}
				}
				bins[argmin] += l
			}
			maxScan = slices.Max(bins)
		}
		cycles := TestTime(waterLevel(maxScan, sumScan, m.InputCells(), c),
			waterLevel(maxScan, sumScan, m.OutputCells(), c), m.Patterns)
		if c == 1 || cycles < t.times[c-2] {
			t.times[c-1], t.best[c-1] = cycles, int32(c)
		} else {
			t.times[c-1], t.best[c-1] = t.times[c-2], t.best[c-2]
		}
	}
	return t
}

// Fit returns the best design for module index mi at TAM width w.
// The returned design is shared; callers must not mutate its slices.
func (d *Designer) Fit(mi, w int) Design {
	if w < 1 {
		panic("wrapper.Designer.Fit: width < 1")
	}
	m := &d.soc.Modules[mi]
	if m.Patterns == 0 {
		return Design{Width: w}
	}
	t := d.table(mi)
	c := int(t.best[min(w, len(t.best))-1])
	slot := &t.designs[c-1]
	best := slot.Load()
	if best == nil {
		built := fitChains(m, t.lengths, c)
		slot.CompareAndSwap(nil, &built) // a racing Fit may publish an identical design first
		best = slot.Load()
	}
	out := *best
	out.Width = w
	return out
}

// TimeTable returns the dense best-time table of module mi: entry w-1 is
// the minimum test time in cycles at TAM width w, for w in
// 1..MaxWidthTable(mi); beyond the table the time saturates at the last
// entry. The slice is shared and must not be mutated. The table is
// non-increasing, so callers may binary-search it. Architecture
// optimization's inner loops index it directly instead of paying a map
// load plus a Design struct copy per Time query.
func (d *Designer) TimeTable(mi int) []int64 {
	return d.table(mi).times
}

// Time returns the test time in cycles of module mi at width w.
func (d *Designer) Time(mi, w int) int64 {
	if w < 1 {
		panic("wrapper.Designer.Time: width < 1")
	}
	tt := d.table(mi).times
	if w > len(tt) {
		w = len(tt)
	}
	return tt[w-1]
}

// MinWidth returns the smallest width w ≤ maxW such that module mi tests
// within depth cycles, and whether such a width exists. Because Fit's time
// is non-increasing in w, binary search applies.
func (d *Designer) MinWidth(mi int, depth int64, maxW int) (int, bool) {
	tt := d.table(mi).times
	top := len(tt)
	if top > maxW {
		top = maxW
	}
	if top < 1 {
		return 0, false
	}
	if tt[top-1] > depth {
		return 0, false
	}
	lo, hi := 1, top
	for lo < hi {
		mid := (lo + hi) / 2
		if tt[mid-1] <= depth {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// MaxWidthTable exposes the number of distinct useful chain counts of
// module mi (i.e. MaxUsefulWidth of the module).
func (d *Designer) MaxWidthTable(mi int) int {
	return len(d.table(mi).times)
}

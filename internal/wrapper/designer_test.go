package wrapper

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"multisite/internal/soc"
)

func designerSOC() *soc.SOC {
	return &soc.SOC{Name: "dsn", Modules: []soc.Module{
		{ID: 0, Inputs: 4},
		{ID: 1, Inputs: 32, Outputs: 32, Patterns: 12},
		{ID: 2, Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
		{ID: 3, Inputs: 36, Outputs: 39, Patterns: 105, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
	}}
}

func TestDesignerMatchesFit(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		for w := 1; w <= 20; w++ {
			want := Fit(&s.Modules[mi], w).Time
			if got := d.Time(mi, w); got != want {
				t.Errorf("module %d width %d: designer %d, Fit %d", mi, w, got, want)
			}
		}
	}
}

func TestDesignerMinWidth(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for _, mi := range s.TestableModules() {
		for _, depth := range []int64{100, 1000, 5000, 100000} {
			w, ok := d.MinWidth(mi, depth, 64)
			// Reference: linear scan.
			wantW, wantOK := 0, false
			for x := 1; x <= 64; x++ {
				if d.Time(mi, x) <= depth {
					wantW, wantOK = x, true
					break
				}
			}
			if ok != wantOK || w != wantW {
				t.Errorf("module %d depth %d: MinWidth = (%d,%v), want (%d,%v)",
					mi, depth, w, ok, wantW, wantOK)
			}
		}
	}
}

func TestDesignerMinWidthInfeasible(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	if _, ok := d.MinWidth(3, 1, 64); ok {
		t.Error("depth 1 should be infeasible for a scanned module")
	}
	if _, ok := d.MinWidth(3, 1<<40, 0); ok {
		t.Error("maxW=0 should be infeasible")
	}
}

func TestDesignerMinTime(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	// The table's last entry is the module's smallest achievable time:
	// Fit at MaxUsefulWidth, where every chain and cell can sit alone.
	for _, mi := range s.TestableModules() {
		m := &s.Modules[mi]
		tt := d.TimeTable(mi)
		if got, want := tt[len(tt)-1], Fit(m, MaxUsefulWidth(m)).Time; got != want {
			t.Errorf("module %d: min time designer %d, direct %d", mi, got, want)
		}
	}
}

func TestDesignerFitSharesMemoizedDesigns(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	d1 := d.Fit(3, 8)
	d2 := d.Fit(3, 8)
	if d1.Time != d2.Time || d1.Chains != d2.Chains {
		t.Errorf("repeated Fit differs: %+v vs %+v", d1, d2)
	}
	if err := d1.Validate(&s.Modules[3]); err != nil {
		t.Errorf("memoized design invalid: %v", err)
	}
}

func TestDesignerWidthCap(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	// Requests beyond the table cap must still answer (times saturate).
	if got := d.Time(1, MaxTableWidth+100); got <= 0 {
		t.Errorf("time at huge width = %d", got)
	}
}

func TestDesignerConcurrent(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				mi := 1 + rng.Intn(3)
				w := 1 + rng.Intn(16)
				want := Fit(&s.Modules[mi], w).Time
				if got := d.Time(mi, w); got != want {
					errs <- "mismatch under concurrency"
					return
				}
				// Racing Fits publish the memoized design once.
				if got := d.Fit(mi, w).Time; got != want {
					errs <- "design mismatch under concurrency"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestForCachesPerSOC(t *testing.T) {
	s := designerSOC()
	if For(s) != For(s) {
		t.Error("For returned different designers for the same SOC")
	}
	other := designerSOC()
	if For(s) == For(other) {
		t.Error("For shared a designer across distinct SOC values")
	}
}

func TestDesignerTimeTableMatchesFit(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		if len(tt) != d.MaxWidthTable(mi) {
			t.Errorf("module %d: table length %d != MaxWidthTable %d", mi, len(tt), d.MaxWidthTable(mi))
		}
		for w := 1; w <= len(tt); w++ {
			if want := Fit(&s.Modules[mi], w).Time; tt[w-1] != want {
				t.Errorf("module %d width %d: table %d, Fit %d", mi, w, tt[w-1], want)
			}
		}
	}
}

func TestDesignerTimeTableNonIncreasing(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		for w := 1; w < len(tt); w++ {
			if tt[w] > tt[w-1] {
				t.Errorf("module %d: time increases from width %d (%d) to %d (%d)",
					mi, w, tt[w-1], w+1, tt[w])
			}
		}
	}
}

func TestDesignerTimeSaturatesBeyondTable(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		if got, want := d.Time(mi, len(tt)+37), tt[len(tt)-1]; got != want {
			t.Errorf("module %d: time beyond table = %d, want saturated %d", mi, got, want)
		}
	}
}

// fitsUpTo returns Fit(m, w) for w = 1..n in one pass over chain counts:
// Fit(m, w) is the first fastest fitChains design over chain counts
// 1..min(w, MaxUsefulWidth(m)), so each width extends the previous width's
// search by at most one chain count.
func fitsUpTo(m *soc.Module, n int) []Design {
	out := make([]Design, n)
	lengths := m.SortedChainLengths()
	best := Design{Time: -1}
	for w := 1; w <= n; w++ {
		if m.Patterns == 0 {
			out[w-1] = Design{Width: w}
			continue
		}
		if w <= MaxUsefulWidth(m) {
			if d := fitChains(m, lengths, w); best.Time < 0 || d.Time < best.Time {
				best = d
			}
		}
		out[w-1] = best
		out[w-1].Width = w
	}
	return out
}

// checkDesignerMatchesFit pins module mi of d against the reference Fit:
// the time table entry at every table width, and the whole design —
// chain partition, cell placement and maxima — up to three widths past
// the table, where times saturate.
func checkDesignerMatchesFit(t *testing.T, d *Designer, mi int) {
	t.Helper()
	m := &d.SOC().Modules[mi]
	tt := d.TimeTable(mi)
	n := len(tt)
	if n == MaxUsefulWidth(m) {
		n += 3 // past the table only when it is not capped
	}
	ref := fitsUpTo(m, n)
	for _, w := range []int{1, n} {
		if got := Fit(m, w); !reflect.DeepEqual(ref[w-1], got) {
			t.Fatalf("module %+v width %d: fitsUpTo %+v, Fit %+v", m, w, ref[w-1], got)
		}
	}
	for w := 1; w <= n; w++ {
		if w <= len(tt) && tt[w-1] != ref[w-1].Time {
			t.Fatalf("module %+v width %d: table %d, Fit %d", m, w, tt[w-1], ref[w-1].Time)
		}
		if got := d.Fit(mi, w); !reflect.DeepEqual(got, ref[w-1]) {
			t.Fatalf("module %+v width %d:\nDesigner.Fit %+v\nFit          %+v", m, w, got, ref[w-1])
		}
	}
}

func TestDesignerMatchesFitRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := &soc.SOC{Name: "random"}
	for i := 0; i < 1000; i++ {
		m := randomModule(rng)
		switch i % 6 {
		case 1: // no scan chains: wrapper cells only
			m.ScanChains = nil
		case 2: // no terminals: scan chains only
			m.Inputs, m.Outputs, m.Bidirs = 0, 0, 0
			m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: 1 + rng.Intn(120)})
		case 3: // nothing to shift at all
			m.Inputs, m.Outputs, m.Bidirs, m.ScanChains = 0, 0, 0, nil
		case 4: // no patterns
			m.Patterns = 0
		}
		m.ID = i
		s.Modules = append(s.Modules, *m)
	}
	d := NewDesigner(s)
	for mi := range s.Modules {
		checkDesignerMatchesFit(t, d, mi)
	}
}

func TestDesignerFitRepeatAllocatesNothing(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	d.Fit(3, 8)
	if n := testing.AllocsPerRun(100, func() { d.Fit(3, 8) }); n != 0 {
		t.Errorf("repeated Designer.Fit allocates %v times per call, want 0", n)
	}
}

package wrapper_test

import (
	"testing"

	"multisite/internal/benchdata"
	"multisite/internal/wrapper"
)

func TestDesignerMatchesFitBuiltinChips(t *testing.T) {
	for _, name := range benchdata.Names() {
		s := benchdata.Shared(name)
		d := wrapper.NewDesigner(s)
		for mi := range s.Modules {
			wrapper.CheckDesignerMatchesFit(t, d, mi)
		}
	}
}

// TestDesignerTablesAllocatePerModule bounds the allocations of a fresh
// Designer's d695 tables by a constant per module. A table that built a
// Design per chain count would allocate at least once per chain count,
// and d695's tables cover well over a thousand.
func TestDesignerTablesAllocatePerModule(t *testing.T) {
	s := benchdata.Shared("d695")
	modules := s.TestableModules()
	chainCounts := 0
	for _, mi := range modules {
		chainCounts += min(wrapper.MaxUsefulWidth(&s.Modules[mi]), wrapper.MaxTableWidth)
	}
	allocs := testing.AllocsPerRun(20, func() {
		d := wrapper.NewDesigner(s)
		for _, mi := range modules {
			d.TimeTable(mi)
		}
	})
	if limit := 10*len(modules) + 2; allocs > float64(limit) || limit >= chainCounts {
		t.Errorf("fresh d695 tables: %v allocs for %d modules (limit %d, %d chain counts)",
			allocs, len(modules), limit, chainCounts)
	}
	t.Logf("%v allocs for %d modules, %d chain counts", allocs, len(modules), chainCounts)
}

package bench

import (
	"fmt"
	"runtime"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/seq"
)

// allocDelta runs fn and returns the bytes allocated during the call
// (TotalAlloc delta after a GC fence) — allocation volume, not peak
// residency, but a faithful proxy for the auxiliary-space story.
func allocDelta(fn func()) int64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// Memory reports the allocation volume of the BCC implementations — the
// paper's space argument: Tarjan–Vishkin's Θ(m) auxiliary graph is what
// makes it run out of memory on billion-edge inputs while FAST-BCC's O(n)
// auxiliary space survives.
func Memory(c Config) {
	fmt.Fprintf(c.Out, "\n== Memory: BCC allocation volume (paper's o.o.m. argument) ==\n")
	rows := [][]string{{"Graph", "n", "m", "PASGAL(FAST-BCC)", "TV", "TV/PASGAL",
		"HopcroftTarjan*"}}
	for _, s := range c.registry() {
		g := c.build(s).Symmetrized()
		aP := allocDelta(func() { core.BCC(g, core.Options{}) })
		aT := allocDelta(func() { baseline.TarjanVishkinBCC(g, core.Options{}) })
		aH := allocDelta(func() { seq.HopcroftTarjanBCC(g) })
		ratio := "-"
		if aP > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(aT)/float64(aP))
		}
		rows = append(rows, []string{s.Name, fmtCount(g.N), fmtCount(len(g.Edges)),
			byteSize(aP), byteSize(aT), ratio, byteSize(aH)})
	}
	printAligned(c.Out, rows)
}

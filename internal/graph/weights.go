package graph

// uniform is UniformWeights' view: an unweighted Adjacency whose arcs the
// Scanner weighs with UniformWeight as it lists them.
type uniform struct {
	Adjacency
	lo         uint32
	span, seed uint64 // span = hi - lo + 1
}

// HasWeights implements Adjacency.
func (*uniform) HasWeights() bool { return true }

// UniformWeights returns a with arc (u, v) weighing UniformWeight(u, v,
// lo, hi, seed), or a itself when it stores weights. The view is O(1)
// memory on any representation: each scanned arc pays a hash instead.
func UniformWeights(a Adjacency, lo, hi uint32, seed uint64) Adjacency {
	if hi < lo {
		panic("graph: UniformWeights with hi < lo")
	}
	if a.HasWeights() {
		return a
	}
	return &uniform{Adjacency: a, lo: lo, span: uint64(hi-lo) + 1, seed: seed}
}

// UniformWeight is the weight in [lo, hi] of arc (u, v): lo plus a hash of
// (seed, min(u,v), max(u,v)) mod hi-lo+1, so both arcs of an edge agree
// and an edge keeps its weight across updates. It is the rule's one
// home: gen.AddUniformWeights stores its values, and UniformWeights'
// scans (hashArcs) compute the same ones, as tests check arc for arc.
func UniformWeight(u, v, lo, hi uint32, seed uint64) uint32 {
	if u > v {
		u, v = v, u
	}
	h := hash64(seed ^ hash64(uint64(u)+minKey) ^ hash64(uint64(v)+maxKey))
	return lo + uint32(h%(uint64(hi-lo)+1))
}

// Offsets keying an endpoint's hash term on whether it is the smaller.
const minKey, maxKey = 0x632be59bd9b4e019, 0xd1b54a32d192ed03

// hash64 is the splitmix64 finalizer.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package model

// arena hands out capacity-capped sub-slices of a few large chunks, so a
// Builder allocates per chunk rather than per variable, event, scope or
// bad set. The first chunk fits the first request; each later one doubles,
// up to arenaMaxChunk entries (a larger request gets a chunk of its own
// size). Slices handed out are never reused: they live as long as the
// instance that holds them.
type arena[T any] struct {
	buf []T
}

// arenaMaxChunk caps a chunk at 4,096 entries, so a small instance holds
// chunks sized to its needs and a large one allocates a few per thousand
// entries.
const arenaMaxChunk = 4096

// alloc returns n zeroed entries.
func (a *arena[T]) alloc(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, max(n, min(2*cap(a.buf), arenaMaxChunk)))
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// clone returns a copy of src.
func (a *arena[T]) clone(src []T) []T {
	out := a.alloc(len(src))
	copy(out, src)
	return out
}

// one returns a pointer to one zeroed entry.
func (a *arena[T]) one() *T {
	return &a.alloc(1)[0]
}

// arenas are the allocators behind a Builder: slabs for the Variable,
// Event and Conjunction structs, and arenas for scopes, bad-set masks,
// set probabilities and the ConjunctionSpec bad sets.
type arenas struct {
	vars   arena[Variable]
	events arena[Event]
	conjs  arena[Conjunction]
	ints   arena[int]
	bools  arena[bool]
	floats arena[float64]
	masks  arena[[]bool]
	sets   arena[[]int]
}

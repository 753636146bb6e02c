package model

// arena hands out capacity-capped sub-slices of a few large chunks, so a
// Builder allocates per chunk rather than per variable, event, scope or
// bad set. A hinted arena's next chunk holds the hinted count (see
// Builder.Grow), so a build that states its size fills one exact chunk.
// Without a hint, the first chunk fits the first request and each later
// one doubles, up to arenaMaxChunk entries (a larger request gets a chunk
// of its own size). Slices handed out are never reused: they live as long
// as the instance that holds them.
type arena[T any] struct {
	buf  []T
	hint int // entries of the next chunk, if a request needs fewer
}

// arenaMaxChunk caps an unhinted chunk at 4,096 entries, so a small
// instance holds chunks sized to its needs and a large one allocates a
// few per thousand entries.
const arenaMaxChunk = 4096

// alloc returns n zeroed entries.
func (a *arena[T]) alloc(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		size := max(n, min(2*cap(a.buf), arenaMaxChunk))
		if a.hint > 0 {
			size, a.hint = max(n, a.hint), 0
		}
		a.buf = make([]T, 0, size)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// grow makes the next chunk hold n entries, unless the current one has
// room for them. Nothing is allocated until the next request.
func (a *arena[T]) grow(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.hint = n
	}
}

// slack returns the entries of the current chunk not yet handed out, plus
// those a hint still reserves for the next.
func (a *arena[T]) slack() int { return cap(a.buf) - len(a.buf) + a.hint }

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

package apps

import "strconv"

// nameTable writes the variable and event names of one build into a single
// string and hands out slices of it, so a build allocates one string for
// all its names instead of one per name. The bytes are those fmt's %d and
// %v verbs would print.
type nameTable struct {
	buf  []byte
	ends []int // ends[i] is the end offset of name i
	all  string
}

// newNameTable returns a table sized for count names of about 16 bytes.
func newNameTable(count int) *nameTable {
	return &nameTable{buf: make([]byte, 0, 16*count), ends: make([]int, 0, count)}
}

// add appends prefix followed by the decimal value of x.
func (t *nameTable) add(prefix string, x int) {
	t.buf = strconv.AppendInt(append(t.buf, prefix...), int64(x), 10)
	t.ends = append(t.ends, len(t.buf))
}

// addPair appends prefix, "{x,y}": the name of a graph edge.
func (t *nameTable) addPair(prefix string, x, y int) {
	t.buf = strconv.AppendInt(append(append(t.buf, prefix...), '{'), int64(x), 10)
	t.buf = strconv.AppendInt(append(t.buf, ','), int64(y), 10)
	t.buf = append(t.buf, '}')
	t.ends = append(t.ends, len(t.buf))
}

// addList appends prefix followed by xs as %v prints an []int: "[1 5 9]".
func (t *nameTable) addList(prefix string, xs []int) {
	t.buf = append(append(t.buf, prefix...), '[')
	for i, x := range xs {
		if i > 0 {
			t.buf = append(t.buf, ' ')
		}
		t.buf = strconv.AppendInt(t.buf, int64(x), 10)
	}
	t.buf = append(t.buf, ']')
	t.ends = append(t.ends, len(t.buf))
}

// seal turns the written bytes into the one shared string; call it after
// the last add and before the first name.
func (t *nameTable) seal() {
	t.all = string(t.buf)
	t.buf = nil
}

// name returns the i-th name added.
func (t *nameTable) name(i int) string {
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.all[start:t.ends[i]]
}

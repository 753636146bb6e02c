package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeLine is what json.NewEncoder writes for e, without the newline.
func encodeLine(t testing.TB, e Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(e); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestAppendRelayedRoundMatchesEncoder splices round events with every
// subset of the optional round fields, values up to intDigits digits, seqs
// of different lengths and node names that need escaping, and checks each
// result against encoding/json's bytes for the event with Seq and Node set.
func TestAppendRelayedRoundMatchesEncoder(t *testing.T) {
	largest := 0 // the largest number of intDigits digits
	for i := 0; i < intDigits; i++ {
		largest = largest*10 + 9
	}
	values := []int{1, 9, 10, 72, 648, 1 << 30, largest}
	seqs := []int{0, 7, 10, 673, 1 << 20, largest}
	nodes := []string{"a", "node-7", "", `q"uote`, `back\slash`, "<b>&amp;", "nœud-é", "tab\there", " ", "\x7f", "bad\xffutf8"}
	prefix := []byte("kept\n")
	for mask := 0; mask < 1<<8; mask++ {
		e := Event{Kind: "round", Seq: seqs[mask%len(seqs)], TimeMS: int64(values[mask%len(values)] * (mask % 2))}
		fields := []*int{&e.Round, &e.Steps, &e.Messages, &e.Active, &e.Halted, &e.Dropped, &e.Crashed, &e.Instance}
		for i, f := range fields {
			if mask&(1<<i) != 0 {
				*f = values[(mask+i)%len(values)]
			}
		}
		line := encodeLine(t, e)
		for i, node := range nodes {
			seq := seqs[(mask+i)%len(seqs)]
			got, ok := AppendRelayedRound(bytes.Clone(prefix), line, seq, node)
			want := e
			want.Seq, want.Node = seq, node
			if !ok || !bytes.Equal(got, append(bytes.Clone(prefix), encodeLine(t, want)...)) {
				t.Fatalf("splice of %s with seq %d, node %q = %q, %v; want %q", line, seq, node, got, ok, encodeLine(t, want))
			}
		}
	}
}

// notSpliced are node lines AppendRelayedRound must leave to the decoder:
// other kinds, other fields, and numbers or layout encoding/json would
// not have written.
var notSpliced = []string{
	``,
	`{}`,
	`null`,
	`{"seq":3,"kind":"start","t_ms":0,"attempt":1}`,
	`{"seq":3,"kind":"end","t_ms":9,"state":"done"}`,
	`{"seq":3,"kind":"rounds","t_ms":1}`,
	`{"seq":3,"kind":"round"}`,
	`{"seq":3,"kind":"round","round":2}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2,"trace":"0123456789abcdef"}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2,"node":"a"}`,
	`{"seq":3,"kind":"round","t_ms":1,"attempt":1,"round":2}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":02}`,
	`{"seq":03,"kind":"round","t_ms":1}`,
	`{"seq":3,"kind":"round","t_ms":01}`,
	`{"seq":3,"kind":"round","t_ms":1,"steps":0}`,
	`{"seq":3,"kind":"round","t_ms":1,"steps":5,"round":2}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2,"round":2}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":-2}`,
	`{"seq":-3,"kind":"round","t_ms":1}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2.0}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2e3}`,
	`{"seq":3,"kind":"round","t_ms":1,"Round":2}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":"2"}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":` + strings.Repeat("9", intDigits+1) + `}`,
	`{"seq": 3,"kind":"round","t_ms":1}`,
	` {"seq":3,"kind":"round","t_ms":1}`,
	`{"seq":3,"kind":"round","t_ms":1} `,
	`{"seq":3,"kind":"round","t_ms":1}x`,
	`{"seq":3,"kind":"round","t_ms":1}}`,
	`{"seq":3,"kind":"round","t_ms":1,"round":2`,
	`{"seq":3,"kind":"round","t_ms":1,}`,
	`{"kind":"round","seq":3,"t_ms":1}`,
}

// TestAppendRelayedRoundRejects checks that every line of notSpliced is
// refused with dst unchanged.
func TestAppendRelayedRoundRejects(t *testing.T) {
	dst := []byte("kept\n")
	for _, line := range notSpliced {
		got, ok := AppendRelayedRound(dst, []byte(line), 7, "a")
		if ok || !bytes.Equal(got, dst) {
			t.Errorf("%s: spliced to %q, want it left to the decoder", line, got)
		}
	}
}

// FuzzAppendRelayedRound checks the splice's contract on any line: what
// it splices decodes, re-encodes to the same line, and with Seq and Node
// set encodes to the spliced bytes.
func FuzzAppendRelayedRound(f *testing.F) {
	f.Add([]byte(`{"seq":12,"kind":"round","t_ms":0,"round":3,"steps":72,"messages":648,"active":72}`), 5, "a")
	f.Add([]byte(`{"seq":0,"kind":"round","t_ms":4,"dropped":1,"crashed":2,"instance":9}`), 0, `<"n">`)
	for _, line := range notSpliced {
		f.Add([]byte(line), 1, "b")
	}
	f.Fuzz(func(t *testing.T, line []byte, seq int, node string) {
		got, ok := AppendRelayedRound(nil, line, seq, node)
		if !ok {
			return
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("spliced %s, which does not decode: %v", line, err)
		}
		if again := encodeLine(t, e); !bytes.Equal(again, line) {
			t.Fatalf("spliced %s, which encoding/json writes as %s", line, again)
		}
		e.Seq, e.Node = seq, node
		if want := encodeLine(t, e); !bytes.Equal(got, want) {
			t.Fatalf("splice of %s = %s, want %s", line, got, want)
		}
	})
}

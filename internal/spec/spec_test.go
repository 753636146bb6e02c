package spec

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/model"
	"repro/internal/prng"
)

// roundTrip saves and reloads an instance, comparing the core parameters
// and a sample of conditional probabilities.
func roundTrip(t *testing.T, inst *model.Instance) *model.Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, inst); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumVars() != inst.NumVars() || loaded.NumEvents() != inst.NumEvents() {
		t.Fatalf("shape changed: (%d,%d) -> (%d,%d)",
			inst.NumVars(), inst.NumEvents(), loaded.NumVars(), loaded.NumEvents())
	}
	p0, d0, r0 := inst.Params()
	p1, d1, r1 := loaded.Params()
	if math.Abs(p0-p1) > 1e-12 || d0 != d1 || r0 != r1 {
		t.Fatalf("params changed: (%v,%d,%d) -> (%v,%d,%d)", p0, d0, r0, p1, d1, r1)
	}
	// Random partial assignments must give identical conditional
	// probabilities.
	r := prng.New(11)
	for trial := 0; trial < 20; trial++ {
		a0 := model.NewAssignment(inst)
		a1 := model.NewAssignment(loaded)
		for v := 0; v < inst.NumVars(); v++ {
			if r.Bool() {
				val := r.Intn(inst.Var(v).Dist.Size())
				a0.Fix(v, val)
				a1.Fix(v, val)
			}
		}
		for e := 0; e < inst.NumEvents(); e++ {
			q0 := inst.CondProb(e, a0)
			q1 := loaded.CondProb(e, a1)
			if math.Abs(q0-q1) > 1e-12 {
				t.Fatalf("event %d: CondProb %v -> %v", e, q0, q1)
			}
		}
	}
	return loaded
}

func TestRoundTripSinkless(t *testing.T) {
	s, err := apps.NewSinkless(graph.Cycle(8), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s.Instance)
}

func TestRoundTripHyperSinkless(t *testing.T) {
	r := prng.New(1)
	h, err := hypergraph.RandomRegularRank3(12, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.NewHyperSinkless(h, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, s.Instance)
}

func TestRoundTripWeakSplitting(t *testing.T) {
	r := prng.New(2)
	adj, err := apps.RandomBiregular(9, 3, 9, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := apps.NewWeakSplitting(adj, 9, 16)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, w.Instance)
}

func TestEncodeRejectsUntaggedEvents(t *testing.T) {
	b := model.NewBuilder()
	x := b.AddVariable(dist.Uniform(2), "x")
	b.AddEvent([]int{x}, func(v []int) bool { return v[0] == 1 }, nil, "custom")
	inst := b.MustBuild()
	if _, err := Encode(inst); !errors.Is(err, ErrUnsupportedEvent) {
		t.Fatalf("err = %v, want ErrUnsupportedEvent", err)
	}
}

// TestLoadValidation pins the exact error of every malformed document,
// including the model's scope checks surfacing through Build.
func TestLoadValidation(t *testing.T) {
	tests := []struct {
		name string
		json string
		want string
	}{
		{"wrong version", `{"version":2,"variables":[],"events":[]}`,
			"spec: unsupported version 2 (want 1)"},
		{"bad probs", `{"version":1,"variables":[{"probs":[0.5,0.4]}],"events":[]}`,
			"spec: variable 0: dist: probabilities do not sum to 1: sum = 0.9"},
		{"scope out of range", `{"version":1,"variables":[{"probs":[0.5,0.5]}],
			"events":[{"kind":"allEqual","scope":[0,1]}]}`,
			"spec: event 0 references variable 1 outside [0,1)"},
		{"unknown kind", `{"version":1,"variables":[{"probs":[0.5,0.5]}],
			"events":[{"kind":"xor","scope":[0]}]}`,
			`spec: event 0 has unknown kind "xor"`},
		{"bad-set value out of range", `{"version":1,"variables":[{"probs":[0.5,0.5]}],
			"events":[{"kind":"conjunction","scope":[0],"badSets":[[3]]}]}`,
			"spec: event 0: bad-set value 3 outside variable 0's range"},
		{"bad-set count mismatch", `{"version":1,"variables":[{"probs":[0.5,0.5]}],
			"events":[{"kind":"conjunction","scope":[0],"badSets":[[0],[1]]}]}`,
			"spec: event 0: 2 bad sets for scope of 1"},
		{"empty scope", `{"version":1,"variables":[{"probs":[0.5,0.5]}],
			"events":[{"name":"e","kind":"allEqual","scope":[]}]}`,
			"spec: building instance: model: event with empty scope: event 0 (e)"},
		{"duplicate scope variable", `{"version":1,"variables":[{"probs":[0.5,0.5]},{"probs":[0.5,0.5]}],
			"events":[{"kind":"conjunction","scope":[0,1],"badSets":[[0],[1]]},
			{"kind":"conjunction","scope":[1,1],"badSets":[[0],[1]]}]}`,
			"spec: building instance: model: duplicate variable in scope: event 1, variable 1"},
		{"unknown field", `{"version":1,"variables":[],"events":[],"bogus":1}`,
			`spec: decoding: json: unknown field "bogus"`},
		{"garbage", `{`, "spec: decoding: unexpected EOF"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.json)); err == nil || err.Error() != tt.want {
				t.Fatalf("Load error = %v, want %q", err, tt.want)
			}
		})
	}
}

func TestSolveLoadedInstance(t *testing.T) {
	// End-to-end: a saved instance must load and be solvable with the same
	// guarantee.
	s, err := apps.NewSinklessBiasedCycle(10, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, s.Instance)
	ok, margin := loaded.ExponentialCriterion()
	if !ok {
		t.Fatalf("loaded instance off criterion: %v", margin)
	}
}

func TestJSONShape(t *testing.T) {
	s, err := apps.NewSinkless(graph.Cycle(4), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s.Instance); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version": 1`, `"probs"`, `"kind": "conjunction"`, `"badSets"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestGoldenFileLoads(t *testing.T) {
	// The committed golden file pins the on-disk format: if the schema
	// changes incompatibly, this test fails before users' files break.
	f, err := os.Open("testdata/sinkless_c6.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := Load(f)
	if err != nil {
		t.Fatalf("golden file no longer loads: %v", err)
	}
	if inst.NumEvents() != 6 || inst.NumVars() != 6 {
		t.Fatalf("golden instance shape changed: vars=%d events=%d", inst.NumVars(), inst.NumEvents())
	}
	ok, margin := inst.ExponentialCriterion()
	if !ok || math.Abs(margin-0.8) > 1e-9 {
		t.Fatalf("golden instance margin = %v", margin)
	}
}

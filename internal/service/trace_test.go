package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/slo"
)

// traceBuf is a mutex-guarded sink for the JSONL trace recorder.
type traceBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *traceBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *traceBuf) events(t *testing.T) []obs.Event {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var events []obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(b.buf.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	return events
}

// TestTraceIDMintedAtAdmission: every job gets a trace ID at submit, the
// view and the event stream carry it, and the scheduler emits queue_wait
// and attempt spans tagged with it on the JSONL trace stream.
func TestTraceIDMintedAtAdmission(t *testing.T) {
	var sink traceBuf
	rec := obs.NewRecorder(&sink)
	r := newStubRunner()
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Trace: rec, Runner: r.run})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(j.TraceID) != 16 {
		t.Fatalf("TraceID = %q, want 16 hex chars", j.TraceID)
	}
	if v := j.View(); v.TraceID != j.TraceID {
		t.Fatalf("view trace_id = %q, want %q", v.TraceID, j.TraceID)
	}
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, j, StateDone)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	events, _, _ := jobEvents(t, j, 0)
	if first := events[0]; first.Kind != "queued" || first.Trace != j.TraceID {
		t.Fatalf("queued event = %+v, want trace %q", first, j.TraceID)
	}
	end := events[len(events)-1]
	if end.Kind != "end" || end.Trace != j.TraceID {
		t.Fatalf("end event = %+v, want trace %q", end, j.TraceID)
	}
	if end.QueueMS < 0 || end.RunMS < 0 {
		t.Fatalf("end event latency breakdown = queue %dms run %dms", end.QueueMS, end.RunMS)
	}
	if len(end.Flight) != 0 {
		t.Fatalf("done job should not dump its flight recorder: %+v", end.Flight)
	}

	phases := map[string]obs.Event{}
	for _, e := range sink.events(t) {
		if e.Kind == "span" && e.Trace == j.TraceID {
			phases[e.Phase] = e
		}
	}
	for _, phase := range []string{"queue_wait", "attempt"} {
		e, ok := phases[phase]
		if !ok {
			t.Fatalf("no %q span for trace %q in %v", phase, j.TraceID, phases)
		}
		if e.Job != j.ID || e.Span == "" || e.DurNS < 0 {
			t.Fatalf("%q span = %+v", phase, e)
		}
	}
	if phases["attempt"].Attempt != 1 {
		t.Fatalf("attempt span attempt = %d, want 1", phases["attempt"].Attempt)
	}
}

// TestTraceSpansRealRunner: a real (mtseq) job produces the full span
// cascade — queue_wait, attempt, build_instance, run — all sharing the
// job's trace, with build_instance and run parented under attempt, and the
// runtime's trace-tagged run events in between.
func TestTraceSpansRealRunner(t *testing.T) {
	var sink traceBuf
	rec := obs.NewRecorder(&sink)
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Trace: rec})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{Family: FamilySinkless, N: 48, Margin: 0.9, Algorithm: AlgMTSeq, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	spans := map[string]obs.Event{}
	tagged := 0
	for _, e := range sink.events(t) {
		if e.Trace != j.TraceID {
			continue
		}
		tagged++
		if e.Kind == "span" {
			spans[e.Phase] = e
		}
	}
	for _, phase := range []string{"queue_wait", "attempt", "build_instance", "run"} {
		if _, ok := spans[phase]; !ok {
			t.Fatalf("missing %q span; spans seen: %v", phase, spans)
		}
	}
	att := spans["attempt"]
	if spans["build_instance"].Parent != att.Span {
		t.Errorf("build_instance parent = %q, want attempt span %q", spans["build_instance"].Parent, att.Span)
	}
	if spans["run"].Parent != att.Span {
		t.Errorf("run span parent = %q, want attempt span %q", spans["run"].Parent, att.Span)
	}
	// The runtime's own events (mt_iteration for mtseq) inherit the trace
	// and sit under the run span.
	sawIteration := false
	for _, e := range sink.events(t) {
		if e.Kind == "mt_iteration" && e.Trace == j.TraceID {
			sawIteration = true
			if e.Parent != spans["run"].Span {
				t.Errorf("mt_iteration parent = %q, want run span %q", e.Parent, spans["run"].Span)
			}
			if e.ScanNS <= 0 {
				t.Errorf("mt_iteration scan_ns = %d, want > 0", e.ScanNS)
			}
		}
	}
	if !sawIteration {
		t.Errorf("no trace-tagged mt_iteration events; %d events carried the trace", tagged)
	}
}

// TestFlightDumpOnFailure: a failing job's end event carries the flight
// recorder — the last rounds, the retry decisions — while a succeeding job
// keeps its stream lean.
func TestFlightDumpOnFailure(t *testing.T) {
	fail := func(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
		for round := 1; round <= 3; round++ {
			emit(Event{Kind: "round", Round: round, Steps: round})
		}
		return nil, errors.New("boom")
	}
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Runner: fail})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)

	events, _, _ := jobEvents(t, j, 0)
	end := events[len(events)-1]
	if end.Kind != "end" || end.State != StateFailed {
		t.Fatalf("end event = %+v", end)
	}
	if len(end.Flight) == 0 {
		t.Fatal("failed job end event carries no flight dump")
	}
	if end.FlightTotal < int64(len(end.Flight)) {
		t.Fatalf("flight_total %d < dumped %d", end.FlightTotal, len(end.Flight))
	}
	kinds := map[string]int{}
	var lastTNS int64 = -1
	for _, fe := range end.Flight {
		kinds[fe.Kind]++
		if fe.TNS < lastTNS {
			t.Fatalf("flight dump not chronological: %+v", end.Flight)
		}
		lastTNS = fe.TNS
	}
	if kinds["round"] < 6 { // 3 rounds × 2 attempts
		t.Errorf("flight rounds = %d, want ≥ 6 across both attempts; kinds %v", kinds["round"], kinds)
	}
	if kinds["retry"] != 1 {
		t.Errorf("flight retry entries = %d, want 1; kinds %v", kinds["retry"], kinds)
	}
	for _, fe := range end.Flight {
		if fe.Kind == "retry" && fe.Detail == "" {
			t.Errorf("retry flight entry lacks detail: %+v", fe)
		}
	}
}

// TestFlightRingBoundsEndEvent: a job that streams far more events than the
// ring keeps still dumps at most the ring capacity, with the total
// reflecting everything recorded.
func TestFlightRingBoundsEndEvent(t *testing.T) {
	noisy := func(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
		for round := 1; round <= flightRing*4; round++ {
			emit(Event{Kind: "round", Round: round})
		}
		return nil, errors.New("boom")
	}
	s := New(Config{QueueCap: 4, MaxInFlight: 1, Runner: noisy})
	defer s.Shutdown(context.Background())

	j, _ := s.Submit(JobSpec{})
	waitState(t, j, StateFailed)
	events, _, _ := jobEvents(t, j, 0)
	end := events[len(events)-1]
	if len(end.Flight) > flightRing {
		t.Fatalf("flight dump = %d entries, ring is %d", len(end.Flight), flightRing)
	}
	if end.FlightTotal < flightRing*4 {
		t.Fatalf("flight_total = %d, want ≥ %d", end.FlightTotal, flightRing*4)
	}
	// The dump holds the freshest entries: the last round must be present.
	last := end.Flight[len(end.Flight)-1]
	if last.Kind != "round" || last.Round != flightRing*4 {
		t.Fatalf("freshest flight entry = %+v, want round %d", last, flightRing*4)
	}
}

// sloEngineTripped returns an engine in fast burn whose run_latency p99 is
// the overflow bucket (+Inf > any deadline).
func sloEngineTripped(t *testing.T) *slo.Engine {
	t.Helper()
	eng := slo.NewEngine(slo.Config{
		Objectives: []slo.Objective{
			{Name: SLORunLatency, Kind: slo.Latency, Target: 0.9, Threshold: 0.1},
			{Name: SLOErrorRate, Kind: slo.Ratio, Target: 0.9},
		},
		ShortWindow: 10 * time.Second,
		LongWindow:  time.Minute,
		BurnFactor:  2,
	})
	for i := 0; i < 50; i++ {
		eng.Observe(SLORunLatency, 30, fmt.Sprintf("%016x", i))
	}
	if !eng.FastBurn() {
		t.Fatal("engine should be in fast burn after 50 bad observations")
	}
	return eng
}

// TestShedUnderFastBurn: with the SLO engine in fast burn, a job whose
// deadline cannot meet the predicted p99 is refused with ErrShed and
// counted; jobs without deadlines are still admitted.
func TestShedUnderFastBurn(t *testing.T) {
	reg := obs.NewRegistry()
	eng := sloEngineTripped(t)
	r := newStubRunner()
	s := New(Config{QueueCap: 8, MaxInFlight: 1, Metrics: reg, SLO: eng, Runner: r.run})
	defer s.Shutdown(context.Background())

	if _, err := s.Submit(JobSpec{TimeoutMS: 50}); !errors.Is(err, ErrShed) {
		t.Fatalf("deadline'd submit under fast burn: err = %v, want ErrShed", err)
	}
	if got := reg.Counter("service_admission_shed_total").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := reg.Counter("service_admission_rejects_total").Value(); got != 1 {
		t.Errorf("rejects counter = %d, want 1 (shed counts as reject)", got)
	}
	if got := reg.Gauge("service_slo_fast_burn").Value(); got != 1 {
		t.Errorf("fast burn gauge = %v, want 1", got)
	}

	// No deadline → nothing to protect → admitted even under fast burn.
	j, err := s.Submit(JobSpec{})
	if err != nil {
		t.Fatalf("deadline-less submit under fast burn: %v", err)
	}
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, j, StateDone)
}

// TestNoShedWhenHealthy: a healthy engine (or none at all) never sheds, and
// the scheduler feeds its observations back into the engine.
func TestNoShedWhenHealthy(t *testing.T) {
	eng := slo.NewEngine(slo.Config{
		Objectives: []slo.Objective{
			{Name: SLORunLatency, Kind: slo.Latency, Target: 0.9, Threshold: 10},
			{Name: SLOQueueWait, Kind: slo.Latency, Target: 0.9, Threshold: 10},
			{Name: SLOErrorRate, Kind: slo.Ratio, Target: 0.9},
		},
	})
	r := newStubRunner()
	s := New(Config{QueueCap: 8, MaxInFlight: 1, SLO: eng, Runner: r.run})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{TimeoutMS: 60_000})
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, j, StateDone)

	st := eng.Status()
	byName := map[string]slo.ObjectiveStatus{}
	for _, o := range st.Objectives {
		byName[o.Name] = o
	}
	if byName[SLORunLatency].Good+byName[SLORunLatency].Bad == 0 {
		t.Error("scheduler did not feed run_latency observations")
	}
	if byName[SLOQueueWait].Good+byName[SLOQueueWait].Bad == 0 {
		t.Error("scheduler did not feed queue_wait observations")
	}
	if byName[SLOErrorRate].Good == 0 {
		t.Error("scheduler did not feed error_rate outcome")
	}

	// No engine configured: the shed path is inert.
	s2 := New(Config{QueueCap: 2, MaxInFlight: 1, Runner: r.run})
	defer s2.Shutdown(context.Background())
	j2, err := s2.Submit(JobSpec{TimeoutMS: 1})
	if err != nil {
		t.Fatalf("submit without SLO engine: %v", err)
	}
	waitStarted(t, r)
	r.release <- struct{}{}
	waitState(t, j2, StateDone)
}

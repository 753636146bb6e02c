package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
)

// serveEvents is a node's GET /v1/jobs/{id}/events?from=from of a terminal
// job.
func serveEvents(j *Job, from int) []byte {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%s/events?from=%d", j.ID, from), nil)
	ServeEvents(rec, req, j.EventsSince)
	return rec.Body.Bytes()
}

// TestNodeStreamByteIdentical drives a job through every kind of event a
// node emits and serves its stream from every position. The reference is
// the node's stream before the event log: a json.Encoder over the []Event
// it kept. Each event's t_ms, the one field read off the clock, is taken
// from the served line.
func TestNodeStreamByteIdentical(t *testing.T) {
	for _, resumed := range []bool{false, true} {
		spec := JobSpec{TraceID: "0123456789abcdef"}
		queued := Event{Kind: "queued", Trace: spec.TraceID}
		if resumed {
			spec.Resume = &fault.Checkpoint{Algorithm: "mtpar", Round: 7, Values: []int{1, 0, 1}}
			queued.Resumed, queued.Round = true, 7
		}
		// An hour-old job, so that t_ms has digits to get wrong.
		j := newJob("j000001", spec, time.Now().Add(-time.Hour), 1)
		want := []Event{queued}
		emit := func(e Event) {
			want = append(want, e)
			j.Emit(e)
		}
		begin := func() {
			if _, attempt, _, ok := j.begin(context.Background()); !ok {
				t.Fatal("job did not start")
			} else {
				want = append(want, Event{Kind: "start", Attempt: attempt})
			}
		}

		begin()
		// Rounds with every subset of the round fields, instance included.
		values := []int{1, 9, 72, 648, -3, 1 << 40}
		for mask := 0; mask < 1<<8; mask++ {
			e := Event{Kind: "round"}
			for i, f := range []*int{&e.Round, &e.Steps, &e.Messages, &e.Active, &e.Halted, &e.Dropped, &e.Crashed, &e.Instance} {
				if mask&(1<<i) != 0 {
					*f = values[(mask+i)%len(values)]
				}
			}
			emit(e)
		}
		cause := errors.New(`attempt <1> failed: "boom" & more`)
		if !j.retry(cause, 1500*time.Millisecond) {
			t.Fatal("job did not go back to the queue")
		}
		want = append(want, Event{Kind: "retry", Attempt: 1, BackoffMS: 1500, Err: cause.Error()})
		begin()
		emit(Event{Kind: "checkpoint", Attempt: 2, Round: 9, Checkpoint: &fault.Checkpoint{
			Algorithm: "seq", Round: 9, Values: []int{0, 1}, Phi: []float64{0.25, 1e-9}, Peaks: []float64{0.5},
			Counts: []int{3}, RNG: [4]uint64{1, 2, 3, 1 << 63},
		}})
		emit(Event{Kind: "cache_hit", Attempt: 2})
		emit(Event{Kind: "cache_hit", Attempt: 2, Peer: true})
		emit(Event{Kind: "instance_end", Instance: 3, Err: "bad\tspec\n"})
		emit(Event{Kind: "instance_end", Instance: 4, CacheHit: true})
		emit(Event{Kind: "round", Round: 5, Instance: 4, Node: "nœud"}) // a round with a field it does not splice
		pe := fault.CapturePanic("boom")
		if state := j.finish(nil, pe); state != StateFailed {
			t.Fatalf("job ended %s, want failed", state)
		}
		j.mu.Lock()
		end := j.endEventLocked(Event{Kind: "end", State: StateFailed, Attempt: 2, Err: pe.Error(), Stack: string(pe.Stack)})
		j.mu.Unlock()
		if end.Stack == "" || len(end.Flight) == 0 {
			t.Fatalf("end event carries no stack or no flight dump: %+v", end)
		}
		want = append(want, end)

		full := serveEvents(j, 0)
		lines := bytes.SplitAfter(full, []byte("\n"))
		if len(lines) != len(want)+1 {
			t.Fatalf("resumed=%v: served %d lines, want %d", resumed, len(lines)-1, len(want))
		}
		for i := range want {
			var clock struct {
				TimeMS int64 `json:"t_ms"`
			}
			if err := json.Unmarshal(lines[i], &clock); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			want[i].Seq, want[i].TimeMS = i, clock.TimeMS
		}
		if want[1].TimeMS < time.Hour.Milliseconds() {
			t.Fatalf("start event at t_ms %d, want at least an hour", want[1].TimeMS)
		}
		for from := 0; from <= len(want)+1; from++ {
			var ref bytes.Buffer
			enc := json.NewEncoder(&ref)
			for _, e := range want[min(from, len(want)):] {
				if err := enc.Encode(e); err != nil {
					t.Fatal(err)
				}
			}
			if got := serveEvents(j, from); !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("resumed=%v, from=%d: served\n%s\nwant\n%s", resumed, from, got, ref.Bytes())
			}
		}
	}
}

// TestEventLogRoundWithOtherFields sets, one at a time, every field of a
// "round" event that its direct encoding does not write, and checks that
// the log still writes what json.Marshal writes. A field added to Event
// without a place in that check fails here.
func TestEventLogRoundWithOtherFields(t *testing.T) {
	spliced := map[string]bool{"Seq": true, "Kind": true, "TimeMS": true, "Round": true, "Steps": true,
		"Messages": true, "Active": true, "Halted": true, "Dropped": true, "Crashed": true, "Instance": true}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if spliced[field.Name] {
			continue
		}
		e := Event{Kind: "round", TimeMS: 4, Round: 2}
		v := reflect.ValueOf(&e).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(5)
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(field.Type.Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(field.Type, 1, 1))
		default:
			t.Fatalf("field %s of kind %s: teach this test to set it", field.Name, v.Kind())
		}
		var log EventLog
		log.Append(&Event{Kind: "queued"})
		if err := log.Append(&e); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if lines, _, _ := log.Since(1); !bytes.Equal(lines, append(want, '\n')) {
			t.Errorf("round event with %s set: logged %s, want %s", field.Name, lines, want)
		}
	}
}

// TestEventLogWakesOnlyWaiters checks the wake channel's life: none while
// a reader has events left to read, one made when it has read them all,
// closed by the next append and not made again until someone waits.
func TestEventLogWakesOnlyWaiters(t *testing.T) {
	var log EventLog
	log.Append(&Event{Kind: "queued"})
	if _, n, more := log.Since(0); n != 1 || more != nil {
		t.Fatalf("Since(0) = %d events and channel %v, want 1 and none", n, more)
	}
	_, n, more := log.Since(1)
	if n != 0 || more == nil {
		t.Fatalf("Since(1) = %d events and channel %v, want none and a channel", n, more)
	}
	log.Append(&Event{Kind: "start", Attempt: 1})
	select {
	case <-more:
	default:
		t.Fatal("append did not close the wake channel")
	}
	if log.more != nil {
		t.Fatal("append left a wake channel for no waiter")
	}
	if _, n, more := log.Since(-1); n != 2 || more != nil {
		t.Fatalf("Since(-1) = %d events and channel %v, want 2 and none", n, more)
	}
}

// TestEmitAllocsPerRound pins what a node pays to keep a round event: one
// encoding into the job's log, which allocates only when the log grows. A
// job of 1,000 round events, its creation included, makes at most 0.1
// allocations per event.
func TestEmitAllocsPerRound(t *testing.T) {
	const rounds = 1000
	allocs := testing.AllocsPerRun(5, func() {
		j := newJob("j000001", JobSpec{TraceID: "0123456789abcdef"}, time.Now(), 0)
		for i := 1; i <= rounds; i++ {
			j.Emit(Event{Kind: "round", Round: i, Steps: 72, Messages: 648, Active: 72 - i%72})
		}
	})
	if per := allocs / rounds; per > 0.1 {
		t.Fatalf("%.3f allocations per emitted round event (%.0f per job of %d), want at most 0.1", per, allocs, rounds)
	}
}

// FuzzAppendRound checks the direct encoding of round events: whatever the
// round fields, seq and t_ms, it writes what json.Marshal writes.
func FuzzAppendRound(f *testing.F) {
	f.Add(12, int64(0), 3, 72, 648, 72, 0, 0, 0, 0)
	f.Add(0, int64(4), 0, 0, 0, 0, 1, 1, 2, 9)
	f.Add(-1, int64(-7), -2, 1<<40, -1<<62, 0, 5, -5, 0, 1)
	f.Fuzz(func(t *testing.T, seq int, tms int64, round, steps, messages, active, halted, dropped, crashed, instance int) {
		e := Event{Seq: seq, Kind: "round", TimeMS: tms, Round: round, Steps: steps, Messages: messages,
			Active: active, Halted: halted, Dropped: dropped, Crashed: crashed, Instance: instance}
		got, ok := appendRound([]byte("kept\n"), &e)
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, append([]byte("kept\n"), want...)) {
			t.Fatalf("appended %q, %v; want %q", got, ok, want)
		}
	})
}

package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured trace record. Producers fill in the fields that
// apply and leave the rest zero; zero fields are omitted from the JSONL
// output (except Kind, Seq and TimeNS, which every event carries).
//
// Established kinds: "run_start" / "round" / "run_end" (the LOCAL runtime),
// "mt_iteration" (the resamplers), "span" (generic timed phases). Timing
// fields (TimeNS, DurNS and friends) vary run to run by nature; consumers
// that need determinism compare only the structural fields, which is what
// the schema test in internal/exp does.
type Event struct {
	// Kind identifies the event type.
	Kind string `json:"kind"`
	// Seq is the emission sequence number within the recorder (0-based);
	// it makes interleaved multi-run streams sortable.
	Seq int64 `json:"seq"`
	// TimeNS is nanoseconds since the recorder was created.
	TimeNS int64 `json:"t_ns"`
	// Run tags all events of one run (see Recorder.NextRun).
	Run int64 `json:"run,omitempty"`
	// Phase names the phase of a span event (e.g. "compute", "deliver").
	Phase string `json:"phase,omitempty"`
	// Round is the 1-based round number of a round event.
	Round int `json:"round,omitempty"`
	// Nodes / Workers describe the run (run_start).
	Nodes   int `json:"nodes,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Steps / Messages / Active / Halted are the per-round execution stats.
	Steps    int `json:"steps,omitempty"`
	Messages int `json:"messages,omitempty"`
	Active   int `json:"active,omitempty"`
	Halted   int `json:"halted,omitempty"`
	// Dropped / Crashed account injected faults (messages dropped, nodes
	// crash-stopped) in the round; absent on fault-free runs.
	Dropped int `json:"dropped,omitempty"`
	Crashed int `json:"crashed,omitempty"`
	// Shards / Stolen are the engine's sharding stats for the round
	// (shards executed, shards picked up by helper workers).
	Shards int `json:"shards,omitempty"`
	Stolen int `json:"stolen,omitempty"`
	// ComputeNS is the duration of a round's one pass, in which the
	// machines step and their messages reach the next round's inboxes;
	// DurNS is the duration of a span event.
	ComputeNS int64 `json:"compute_ns,omitempty"`
	DurNS     int64 `json:"dur_ns,omitempty"`
	// ScanNS / ResampleNS split a resampling iteration's duration between
	// the violated-event scan and the resampling work (mt_iteration).
	ScanNS     int64 `json:"scan_ns,omitempty"`
	ResampleNS int64 `json:"resample_ns,omitempty"`
	// Rounds is the final round count (run_end).
	Rounds int `json:"rounds,omitempty"`
	// Err carries the failure of an aborted run (run_end).
	Err string `json:"err,omitempty"`
	// Trace / Span / Parent causally link the event into an end-to-end
	// request trace (see TraceContext): Trace tags every event of one job,
	// Span identifies a "span" event, Parent its enclosing span. Runtime
	// events (round, mt_iteration, run_*) executed on behalf of a traced
	// job carry Trace (and Parent = the span they ran under) so a trace ID
	// from an exemplar or an NDJSON end event recovers the full causal
	// chain from the JSONL stream.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Job is the service job ID the event belongs to, when known.
	Job string `json:"job,omitempty"`
	// Attempt is the 1-based service attempt the event belongs to
	// (attempt spans).
	Attempt int `json:"attempt,omitempty"`
}

// Recorder appends Events to an io.Writer as JSON Lines. It is safe for
// concurrent use; events from concurrent runs interleave but each line is
// written atomically. A nil *Recorder is the disabled recorder: Emit,
// Span.End and Flush are no-ops.
type Recorder struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	err   error
	seq   int64
	runs  int64
	start time.Time
}

// NewRecorder returns a recorder writing JSONL events to w.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// NewFileRecorder creates (truncating) the file at path and returns a
// recorder writing to it plus a close function that flushes and closes the
// file.
func NewFileRecorder(path string) (*Recorder, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	r := NewRecorder(f)
	closeFn := func() error {
		ferr := r.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return r, closeFn, nil
}

// NextRun reserves a fresh run tag; every event of one logical run (one
// local.Run, one resampler execution) carries the same tag so interleaved
// streams from concurrent runs can be separated. Returns 0 on a nil
// receiver.
func (r *Recorder) NextRun() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// Emit writes one event, stamping Seq and TimeNS. No-op on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	e.Seq = r.seq
	r.seq++
	e.TimeNS = time.Since(r.start).Nanoseconds()
	r.err = r.enc.Encode(e)
}

// Flush drains the recorder's buffer and returns the first write error
// encountered over its lifetime. No-op on a nil receiver.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Span is a lightweight timed phase: obtain one with Recorder.Span (or
// Recorder.StartSpan for traced spans), do the work, call End. Spans are
// values (no allocation); the zero Span (from a nil recorder) is a valid
// disabled span.
type Span struct {
	rec     *Recorder
	run     int64
	phase   string
	start   time.Time
	trace   string
	span    string
	parent  string
	job     string
	attempt int
}

// Span starts a timed phase with the given run tag and phase name. On a nil
// receiver it returns the disabled zero Span.
func (r *Recorder) Span(run int64, phase string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, run: run, phase: phase, start: time.Now()}
}

// WithAttempt tags the span with a 1-based attempt number, carried on its
// event. Valid on the zero Span.
func (s Span) WithAttempt(n int) Span {
	s.attempt = n
	return s
}

// Dur returns the span's elapsed time so far (0 on the zero Span).
func (s Span) Dur() time.Duration {
	if s.rec == nil {
		return 0
	}
	return time.Since(s.start)
}

// End emits the span's "span" event with its duration and returns the
// duration. No-op (returning 0) on the zero Span.
func (s Span) End() time.Duration {
	if s.rec == nil {
		return 0
	}
	d := time.Since(s.start)
	s.rec.Emit(Event{
		Kind: "span", Run: s.run, Phase: s.phase, DurNS: d.Nanoseconds(),
		Trace: s.trace, Span: s.span, Parent: s.parent, Job: s.job, Attempt: s.attempt,
	})
	return d
}

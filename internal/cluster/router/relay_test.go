package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

// refRelay is the router's relay as it was before round lines were
// spliced: every node line is decoded into a service.Event, kept, and
// re-encoded for the client. It is the reference the byte relay must match.
type refRelay struct {
	trace  string
	ckpt   *fault.Checkpoint
	events []service.Event
}

// relay feeds one attach to a node's stream through the reference, with
// the per-line rules of the router's streamOnce.
func (ref *refRelay) relay(t *testing.T, node string, lines [][]byte) {
	t.Helper()
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e service.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("reference relay: bad event %q: %v", line, err)
		}
		if e.Trace != "" && ref.trace == "" {
			ref.trace = e.Trace
		}
		if e.Kind == "checkpoint" && e.Checkpoint != nil {
			ref.ckpt = e.Checkpoint
			continue
		}
		e.Node = node
		ref.append(e)
	}
}

// migrate adds the synthetic event of a move to node.
func (ref *refRelay) migrate(node string) {
	ref.append(service.Event{
		Kind: "migrated", Node: node, Trace: ref.trace,
		Checkpoint: ref.ckpt, Resumed: ref.ckpt != nil,
	})
}

func (ref *refRelay) append(e service.Event) {
	e.Seq = len(ref.events)
	ref.events = append(ref.events, e)
}

// encode is the reference's client stream from event from on.
func (ref *refRelay) encode(t *testing.T, from int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range ref.events[from:] {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// nodeScript is one job's run on a stub node: its NDJSON event stream, one
// event per line. When breaks is set, the stream breaks after the last
// line and the node dies with it. With a pace, the node writes and
// flushes one line per pace, like a job in progress.
type nodeScript struct {
	lines  [][]byte
	breaks bool
	pace   time.Duration
}

// stubNodes are llld nodes that serve scripted jobs: the k-th job posted,
// on whichever node, runs the k-th script, and the last script serves
// every later job. A dead node answers nothing, like a killed process.
type stubNodes struct {
	mu      sync.Mutex
	scripts []nodeScript
	posts   int
	placed  []string // node names in the order jobs were posted to them
}

// newStubNodes starts one stub node per name, stopped when the test ends,
// and returns them with the name → URL map a router is configured with.
func newStubNodes(t testing.TB, trace string, names []string, scripts ...nodeScript) (*stubNodes, map[string]string) {
	c := &stubNodes{scripts: scripts}
	urls := make(map[string]string)
	for _, name := range names {
		var (
			script *nodeScript
			dead   bool
		)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			c.mu.Lock()
			if dead {
				c.mu.Unlock()
				panic(http.ErrAbortHandler)
			}
			if req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" {
				script = &c.scripts[min(c.posts, len(c.scripts)-1)]
				c.posts++
				c.placed = append(c.placed, name)
			}
			s := script
			c.mu.Unlock()
			switch {
			case req.URL.Path == "/healthz":
				w.Write([]byte("ok\n"))
			case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
				writeJSON(w, http.StatusAccepted, service.View{ID: "j000001", TraceID: trace, State: service.StateQueued})
			case s != nil && req.URL.Path == "/v1/jobs/j000001/events":
				from, _ := strconv.Atoi(req.URL.Query().Get("from"))
				var out []byte
				for _, line := range s.lines[min(from, len(s.lines)):] {
					out = append(append(out, line...), '\n')
					if s.pace > 0 {
						w.Write(out)
						w.(http.Flusher).Flush()
						out = out[:0]
						time.Sleep(s.pace)
					}
				}
				w.Write(out)
				if s.breaks {
					w.(http.Flusher).Flush()
					c.mu.Lock()
					dead = true
					c.mu.Unlock()
					panic(http.ErrAbortHandler)
				}
			case s != nil && req.URL.Path == "/v1/jobs/j000001":
				writeJSON(w, http.StatusOK, service.View{ID: "j000001", TraceID: trace, State: service.StateDone,
					Result: &service.Summary{Algorithm: "dist", Satisfied: true, AssignmentHash: 0xfeed}})
			default:
				http.NotFound(w, req)
			}
		}))
		t.Cleanup(srv.Close)
		urls[name] = srv.URL
	}
	return c, urls
}

// placedOn returns the nodes the jobs were posted to, in order.
func (c *stubNodes) placedOn() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.placed...)
}

// nodeLines encodes events as a node's stream does, numbering them from 0.
func nodeLines(t testing.TB, events ...service.Event) [][]byte {
	var lines [][]byte
	for i, e := range events {
		e.Seq = i
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// streamFrom reads a job's routed event stream from event from on, to its
// end.
func streamFrom(t testing.TB, ts *httptest.Server, id string, from int) []byte {
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s: status %d, %v", id, resp.StatusCode, err)
	}
	return body
}

// everyKindStream is a node stream with every event kind the service
// writes, and round lines that encoding/json would not have written, which
// the router must decode rather than splice.
func everyKindStream(t *testing.T, trace string) [][]byte {
	lines := nodeLines(t,
		service.Event{Kind: "queued", Trace: trace, Resumed: true, Round: 3},
		service.Event{Kind: "start", TimeMS: 1, Attempt: 1},
		service.Event{Kind: "round", TimeMS: 2, Round: 1, Steps: 72, Messages: 648, Active: 72},
		service.Event{Kind: "round", TimeMS: 2, Round: 2, Steps: 72, Active: 70, Halted: 2, Dropped: 5, Crashed: 1},
		service.Event{Kind: "round", Round: 1, Steps: 9, Messages: 18, Active: 9, Instance: 2},
		service.Event{Kind: "checkpoint", TimeMS: 3, Round: 2, Checkpoint: &fault.Checkpoint{
			Algorithm: "mtseq", Round: 2, Values: []int{0, 1, 1}, Phi: []float64{0.25, 1e-9}, RNG: [4]uint64{7, 1 << 63}}},
		service.Event{Kind: "cache_hit", TimeMS: 4, CacheHit: true, Peer: true},
		service.Event{Kind: "retry", TimeMS: 5, Attempt: 1, BackoffMS: 10, Err: `solver said "no" <at> round 2 & gave up`},
		service.Event{Kind: "round", TimeMS: 5, Round: 3, Steps: 1 << 40, Messages: 999999999, Active: 1},
		service.Event{Kind: "instance_end", TimeMS: 6, Instance: 2, CacheHit: true},
		service.Event{Kind: "surprise", TimeMS: 6, Node: "elsewhere"},
		service.Event{Kind: "end", TimeMS: 7, State: service.StateDone, Attempt: 2, Trace: trace, QueueMS: 1, RunMS: 6,
			FlightTotal: 9, Flight: []obs.FlightEntry{{Kind: "retry", Attempt: 1, Detail: `x "y" <z>`}}},
	)
	odd := [][]byte{
		[]byte(`{"seq":11,"kind":"round","t_ms":6,"round":0,"steps":4}`),
		[]byte(`{"seq":12,"kind":"round","t_ms":6,"steps":4,"round":5}`),
		[]byte(`{"seq":13,"kind":"round","t_ms":6,"round":6,"trace":"` + trace + `"}`),
		[]byte(` {"seq": 14, "kind":"round","t_ms":6,"round":7}`),
		[]byte(`{"seq":15,"kind":"round","t_ms":6,"round":8,"node":"n9"}`),
		{},
	}
	end := len(lines) - 1
	return append(append(lines[:end:end], odd...), lines[end])
}

// TestRoutedStreamByteIdentical pins the byte relay to the decode and
// re-encode relay it replaced: a stream with every event kind, and a job
// that migrates when its node dies after a checkpoint, reach the client
// byte-identical to the reference's, from the start and from ?from=N,
// with the same event count in the view. Checkpoints stay stripped and
// sequence numbers dense across the migration.
func TestRoutedStreamByteIdentical(t *testing.T) {
	const trace = "0123456789abcdef"
	t.Run("every-kind", func(t *testing.T) {
		lines := everyKindStream(t, trace)
		_, urls := newStubNodes(t, trace, []string{"n1"}, nodeScript{lines: lines})
		_, ts, _ := startRouter(t, urls)

		var ref refRelay
		ref.trace = trace
		ref.relay(t, "n1", lines)
		checkRoutedStream(t, ts, submitDist(t, ts), &ref)
	})

	t.Run("migration", func(t *testing.T) {
		ckpt := func(round int) *fault.Checkpoint {
			return &fault.Checkpoint{Algorithm: "mtseq", Round: round, Resamplings: round, RNG: [4]uint64{uint64(round)}}
		}
		round := func(t int64, r int) service.Event {
			return service.Event{Kind: "round", TimeMS: t, Round: r, Steps: 24, Messages: 96, Active: 24 - r}
		}
		first := nodeLines(t,
			service.Event{Kind: "queued", Trace: trace},
			service.Event{Kind: "start", Attempt: 1},
			round(1, 1), round(2, 2),
			service.Event{Kind: "checkpoint", TimeMS: 2, Round: 2, Checkpoint: ckpt(2)},
			round(3, 3),
		)
		second := nodeLines(t,
			service.Event{Kind: "queued", Trace: trace, Resumed: true, Round: 2},
			service.Event{Kind: "start", Attempt: 1},
			round(1, 3), round(1, 4),
			service.Event{Kind: "checkpoint", TimeMS: 1, Round: 4, Checkpoint: ckpt(4)},
			round(2, 5),
			service.Event{Kind: "end", TimeMS: 2, State: service.StateDone, Attempt: 1, Trace: trace, QueueMS: 1, RunMS: 1},
		)
		nodes, urls := newStubNodes(t, trace, []string{"a", "b"},
			nodeScript{lines: first, breaks: true}, nodeScript{lines: second})
		_, ts, _ := startRouter(t, urls)

		id := submitDist(t, ts)
		streamFrom(t, ts, id, 0) // follow the job to its end
		placed := nodes.placedOn()
		if len(placed) != 2 || placed[0] == placed[1] {
			t.Fatalf("job posted to %v, want one node and then the other", placed)
		}
		var ref refRelay
		ref.trace = trace
		ref.relay(t, placed[0], first)
		ref.migrate(placed[1])
		ref.relay(t, placed[1], second)
		checkRoutedStream(t, ts, id, &ref)
	})
}

// TestRoutedStreamConcurrentReaders attaches readers at several offsets
// while the router is still relaying a paced node stream, so they read the
// job's buffer while it grows: each must get the reference's bytes from
// its offset on.
func TestRoutedStreamConcurrentReaders(t *testing.T) {
	lines := distStream(t, 200)
	_, urls := newStubNodes(t, "0123456789abcdef", []string{"n1"}, nodeScript{lines: lines, pace: 200 * time.Microsecond})
	_, ts, _ := startRouter(t, urls)
	var ref refRelay
	ref.relay(t, "n1", lines)

	id := submitDist(t, ts)
	froms := []int{0, 1, 10, 100, 199, len(lines)}
	got := make([][]byte, len(froms))
	var wg sync.WaitGroup
	for i, from := range froms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, from))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if got[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, from := range froms {
		if want := ref.encode(t, from); !bytes.Equal(got[i], want) {
			t.Fatalf("reader from %d got %d bytes, want the reference's %d", from, len(got[i]), len(want))
		}
	}
}

// submitDist posts a checkpointing dist job to the router's API and
// returns its router ID.
func submitDist(t testing.TB, ts *httptest.Server) string {
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"family":"hyper","n":72,"algorithm":"dist","checkpoint_every":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	return v.ID
}

// checkRoutedStream compares job id's routed stream, from the start and
// from every ?from=N, and its view's event count with the reference's.
func checkRoutedStream(t *testing.T, ts *httptest.Server, id string, ref *refRelay) {
	t.Helper()
	for from := 0; from <= len(ref.events); from++ {
		if got, want := streamFrom(t, ts, id, from), ref.encode(t, from); !bytes.Equal(got, want) {
			t.Fatalf("routed stream from %d differs from the reference\n got: %s\nwant: %s", from, got, want)
		}
	}
	if v := routerView(t, ts, id); v.Events != len(ref.events) {
		t.Fatalf("view counts %d events, want %d", v.Events, len(ref.events))
	}
	for i, e := range collectEvents(t, ts, id) {
		if e.Seq != i || e.Kind == "checkpoint" {
			t.Fatalf("routed event %d is %s with seq %d: want dense seqs and no checkpoint", i, e.Kind, e.Seq)
		}
	}
}

// distStream is a node stream of dist-cold's shape: queued, start, one
// round event per LOCAL round of Corollary 1.4 on n = 72, and end.
func distStream(t testing.TB, rounds int) [][]byte {
	events := []service.Event{{Kind: "queued", Trace: "0123456789abcdef"}, {Kind: "start", Attempt: 1}}
	for r := 1; r <= rounds; r++ {
		events = append(events, service.Event{Kind: "round", TimeMS: int64(r / 40), Round: r,
			Steps: 72, Messages: 72 * (1 + r%9), Active: 72 - r%5, Halted: r % 5})
	}
	events = append(events, service.Event{Kind: "end", TimeMS: int64(rounds / 40), State: service.StateDone,
		Attempt: 1, Trace: "0123456789abcdef", QueueMS: 1, RunMS: int64(rounds / 40)})
	return nodeLines(t, events...)
}

// newRelayBench serves a router over one stub node whose every job
// streams lines, until the test ends. The node is never probed again after
// the first probe, so the router's own background work stays out of the
// measurement.
func newRelayBench(t testing.TB, lines [][]byte) *httptest.Server {
	_, urls := newStubNodes(t, "0123456789abcdef", []string{"n1"}, nodeScript{lines: lines})
	reg := obs.NewRegistry()
	r, err := New(Config{Nodes: urls, Metrics: reg, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(r, reg))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	relayJob(t, ts) // warm the connections
	return ts
}

// relayJob submits one job through the router's API and reads its whole
// stream.
func relayJob(t testing.TB, ts *httptest.Server) {
	streamFrom(t, ts, submitDist(t, ts), 0)
}

// TestRelayedRoundAllocs pins what one more relayed round line costs the
// process, router, stub node and client together: the difference between
// jobs of 400 and 100 rounds, per extra line. Decoding, keeping and
// re-encoding every line as an Event made ~8 allocations per line; the
// byte relay makes none beyond its buffers' growth and reader wake-ups.
func TestRelayedRoundAllocs(t *testing.T) {
	const small, large = 100, 400
	allocs := func(rounds int) float64 {
		ts := newRelayBench(t, distStream(t, rounds))
		return testing.AllocsPerRun(20, func() { relayJob(t, ts) })
	}
	a, b := allocs(small), allocs(large)
	perLine := (b - a) / (large - small)
	t.Logf("allocs per job: %.0f at %d rounds, %.0f at %d rounds: %.2f per extra round line", a, small, b, large, perLine)
	if perLine > 1 {
		t.Fatalf("relaying a round line costs %.2f allocations, want at most 1", perLine)
	}
}

package router

import (
	"sync"
	"testing"

	"repro/internal/service"
)

// endEvent is the node "end" event of a finished job.
var endEvent = service.Event{Kind: "end", State: service.StateDone}

// retained returns the IDs of the routed jobs the router still holds, in
// submission order, and how many of them are terminal.
func retained(t *testing.T, r *Router) (ids []string, terminal int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) != len(r.order) {
		t.Fatalf("%d jobs indexed, %d in order", len(r.jobs), len(r.order))
	}
	for _, j := range r.order {
		if r.jobs[j.id] != j {
			t.Fatalf("job %s in order but not indexed", j.id)
		}
		ids = append(ids, j.id)
		if j.terminal() {
			terminal++
		}
	}
	if got := int(r.terminal.Load()); got != terminal {
		t.Fatalf("terminal count %d, but %d terminal jobs held", got, terminal)
	}
	return ids, terminal
}

// TestEvictKeepsNewestTerminal pins Config.Retention: once more routed
// jobs have finished than it allows, a submission evicts the oldest
// finished ones and keeps exactly Retention of the newest, while a job
// still running stays whatever its age. A job counts as finished once,
// however many end events reach it.
func TestEvictKeepsNewestTerminal(t *testing.T) {
	const retention = 3
	r := &Router{cfg: Config{Retention: retention}, jobs: map[string]*routedJob{}}
	running := &routedJob{}
	r.track(running)
	var finished []*routedJob
	for i := 0; i < 10; i++ {
		j := &routedJob{}
		r.track(j)
		ids, terminal := retained(t, r)
		if terminal > retention {
			t.Fatalf("after submission %d: %d finished jobs held, retention %d", i, terminal, retention)
		}
		if ids[0] != running.id {
			t.Fatalf("after submission %d: running job %s evicted (held %v)", i, running.id, ids)
		}
		r.end(j, endEvent)
		r.end(j, endEvent)
		finished = append(finished, j)
	}
	last := &routedJob{}
	r.track(last)
	ids, terminal := retained(t, r)
	want := []string{running.id}
	for _, j := range finished[len(finished)-retention:] {
		want = append(want, j.id)
	}
	want = append(want, last.id)
	if terminal != retention || len(ids) != len(want) {
		t.Fatalf("held %v (%d finished), want %v", ids, terminal, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("held %v, want %v", ids, want)
		}
	}
}

// TestEvictConcurrentFinishes submits and finishes jobs from several
// goroutines at once, as Submit and the follow goroutines do, and checks
// that the terminal count matches the jobs held and that no running job is
// evicted.
func TestEvictConcurrentFinishes(t *testing.T) {
	const retention, workers, perWorker = 8, 4, 50
	r := &Router{cfg: Config{Retention: retention}, jobs: map[string]*routedJob{}}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		running []*routedJob
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j := &routedJob{}
				r.track(j)
				if i%5 == 0 {
					mu.Lock()
					running = append(running, j)
					mu.Unlock()
					continue
				}
				r.end(j, endEvent)
			}
		}()
	}
	wg.Wait()
	r.track(&routedJob{})
	_, terminal := retained(t, r)
	if terminal != retention {
		t.Errorf("%d finished jobs held, want %d", terminal, retention)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range running {
		if r.jobs[j.id] != j {
			t.Errorf("running job %s evicted", j.id)
		}
	}
}

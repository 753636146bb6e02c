package router

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestRoutedStreamWaitsForEnd pins the fix of the empty-stream race: a
// node that answers the POST with a terminal view, as on a warm cache hit,
// must not let the router's stream end before the node's "end" event has
// been relayed. The stub node holds its event stream until the test
// releases it, so the window in which the router knows the node's state
// but has relayed no event stays open for as long as the test needs.
func TestRoutedStreamWaitsForEnd(t *testing.T) {
	release := make(chan struct{})
	const nodeJob = "/v1/jobs/j000001"
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.URL.Path == "/healthz":
			w.Write([]byte("ok\n"))
		case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
			writeJSON(w, http.StatusAccepted, service.View{ID: "j000001", State: service.StateDone})
		case req.URL.Path == nodeJob+"/events":
			select {
			case <-release:
			case <-req.Context().Done():
				return
			}
			enc := json.NewEncoder(w)
			enc.Encode(service.Event{Seq: 0, Kind: "queued"})
			enc.Encode(service.Event{Seq: 1, Kind: "end", State: service.StateDone})
		case req.URL.Path == nodeJob:
			writeJSON(w, http.StatusOK, service.View{ID: "j000001", State: service.StateDone})
		default:
			http.NotFound(w, req)
		}
	}))
	defer node.Close()

	reg := obs.NewRegistry()
	r, err := New(Config{Nodes: map[string]string{"n1": node.URL}, Metrics: reg, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	attached := make(chan struct{}, 1)
	h := NewHandler(r, reg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/events") {
			attached <- struct{}{}
		}
		h.ServeHTTP(w, req)
	}))
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !r.members.State("n1").Usable(); {
		if time.Now().After(deadline) {
			t.Fatal("stub node never became usable")
		}
		time.Sleep(10 * time.Millisecond)
	}

	job, err := r.Submit(service.JobSpec{Family: service.FamilySinkless, N: 24, Algorithm: service.AlgMTPar, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is relayed yet, so the routed job must not look finished.
	if _, events, _, state := job.eventsSince(0); events != 0 || state.Terminal() {
		t.Fatalf("before any relayed event: %d events, state %q; want none and a live state", events, state)
	}

	type streamResult struct {
		lines []string
		err   error
	}
	got := make(chan streamResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.id + "/events")
		if err != nil {
			got <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		var out streamResult
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			out.lines = append(out.lines, sc.Text())
		}
		out.err = sc.Err()
		got <- out
	}()
	<-attached
	close(release)

	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.lines) == 0 {
		t.Fatal("the router's stream ended empty")
	}
	var last service.Event
	if err := json.Unmarshal([]byte(res.lines[len(res.lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "end" || last.State != service.StateDone {
		t.Fatalf("last relayed event %+v, want the node's end event", last)
	}
}

package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tenant"
)

// NewHandler returns the router's HTTP API. The job surface mirrors a
// single llld node — submit, view, NDJSON events, cancel — so clients
// (lllload, curl recipes) work unchanged against the cluster, with three
// additions:
//
//	GET /cluster          node membership, health, load, and routing stats
//	GET /cluster/metrics  all nodes' /metrics federated, node="..." labels injected
//	GET /cluster/slo      all nodes' /slo responses keyed by node
//
// Job IDs are router-scoped (r000001); the routed node is reported in the
// view's "node" field and stamped on every relayed event. Event streams
// keep dense sequence numbers across migrations.
func NewHandler(r *Router, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/", obs.Handler(reg))

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		for _, st := range r.members.Snapshot() {
			if st.State.Usable() {
				w.Write([]byte("ok\n"))
				return
			}
		}
		http.Error(w, "no usable nodes", http.StatusServiceUnavailable)
	})

	submit := func(w http.ResponseWriter, js service.JobSpec) {
		job, err := r.Submit(js)
		if err != nil {
			status := http.StatusServiceUnavailable
			if serr, ok := err.(*submitError); ok {
				status = serr.status
			}
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, http.StatusAccepted, job.view())
	}

	// relayTenant mirrors the node handler's X-Tenant handling: the header
	// fills an unlabelled spec, and because the router forwards the SPEC
	// (not the original headers) to the placed node, folding it in here is
	// what makes tenancy survive the relay — and any migration retries.
	relayTenant := func(js *service.JobSpec, req *http.Request) {
		if js.Tenant == "" {
			js.Tenant = req.Header.Get("X-Tenant")
		}
	}

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		var js service.JobSpec
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&js); err != nil {
			http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		relayTenant(&js, req)
		submit(w, js)
	})

	mux.HandleFunc("POST /v1/jobs/batch", func(w http.ResponseWriter, req *http.Request) {
		var breq service.BatchRequest
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&breq); err != nil {
			http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		js, err := breq.JobSpec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		relayTenant(&js, req)
		submit(w, js)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		r.mu.Lock()
		jobs := append([]*routedJob(nil), r.order...)
		r.mu.Unlock()
		views := make([]service.View, len(jobs))
		for i, j := range jobs {
			views[i] = j.view()
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		job, ok := r.jobs[req.PathValue("id")]
		r.mu.Unlock()
		if !ok {
			http.Error(w, service.ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job.view())
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		job, err := r.Cancel(req.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job.view())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		job, ok := r.jobs[req.PathValue("id")]
		r.mu.Unlock()
		if !ok {
			http.Error(w, service.ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		service.ServeEvents(w, req, job.eventsSince)
	})

	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.ClusterStatus())
	})
	mux.HandleFunc("POST /cluster/members", r.membersPost)
	mux.HandleFunc("GET /cluster/metrics", r.federatedMetrics)
	mux.HandleFunc("GET /cluster/slo", r.federatedSLO)

	return mux
}

// ClusterStatus is the GET /cluster payload.
type ClusterStatus struct {
	// Epoch is the router's current membership version; it advances on
	// every adopted join/leave, so watchers can detect a reload.
	Epoch int64                `json:"epoch"`
	Nodes []cluster.NodeStatus `json:"nodes"`
	// Jobs / Migrations / Lost are the router's lifetime totals.
	Jobs       int64 `json:"jobs"`
	Migrations int64 `json:"migrations"`
	Lost       int64 `json:"lost"`
	// PerNode counts the jobs the router currently tracks per node
	// (terminal jobs included until evicted) — the balance report's input.
	PerNode map[string]int `json:"per_node"`
	// PerTenant counts the tracked jobs per tenant label (unlabelled jobs
	// under "default"), so one GET /cluster shows how tenancy traffic is
	// balanced across the fleet.
	PerTenant map[string]int `json:"per_tenant"`
}

// ClusterStatus assembles the GET /cluster payload.
func (r *Router) ClusterStatus() ClusterStatus {
	perNode := make(map[string]int)
	perTenant := make(map[string]int)
	r.mu.Lock()
	for _, j := range r.order {
		tn := j.spec.Tenant
		if tn == "" {
			tn = tenant.DefaultName
		}
		perTenant[tn]++
		j.mu.Lock()
		perNode[j.node]++
		j.mu.Unlock()
	}
	r.mu.Unlock()
	return ClusterStatus{
		Epoch:      r.Membership().Epoch,
		Nodes:      r.members.Snapshot(),
		Jobs:       r.m.jobs.Value(),
		Migrations: r.m.migrations.Value(),
		Lost:       r.m.lost.Value(),
		PerNode:    perNode,
		PerTenant:  perTenant,
	}
}

// membersPost implements the admin POST /cluster/members on the router:
// mint the next epoch from the change, adopt it (ring hot-reload), fan it
// out to every member, and return the new membership. A joining llld can
// use the router as its seed exactly like any node.
func (r *Router) membersPost(w http.ResponseWriter, req *http.Request) {
	var change cluster.MemberChange
	dec := json.NewDecoder(io.LimitReader(req.Body, 1<<20))
	if err := dec.Decode(&change); err != nil {
		http.Error(w, "bad member change: "+err.Error(), http.StatusBadRequest)
		return
	}
	cur := r.Membership()
	var next cluster.Membership
	switch change.Action {
	case "join":
		if change.Name == "" || change.URL == "" {
			http.Error(w, "join needs name and url", http.StatusBadRequest)
			return
		}
		next = cur.WithJoin(change.Name, change.URL)
	case "leave":
		if change.Name == "" {
			http.Error(w, "leave needs name", http.StatusBadRequest)
			return
		}
		next = cur.WithLeave(change.Name)
	default:
		http.Error(w, fmt.Sprintf("unknown action %q", change.Action), http.StatusBadRequest)
		return
	}
	r.AdoptMembership(next)
	// Fan out synchronously: the handler returns once every reachable
	// member has the new set, so the caller (a joining node, an operator
	// script) can rely on handoffs being underway.
	for _, base := range next.Nodes {
		r.pushMembership(base, next)
	}
	writeJSON(w, http.StatusOK, next)
}

// federatedMetrics concatenates every node's /metrics exposition with a
// node="<name>" label injected into each sample, so one scrape of the
// router covers the whole cluster with per-node series.
func (r *Router) federatedMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, st := range r.members.Snapshot() {
		resp, err := r.client.Get(st.URL + "/metrics")
		if err != nil {
			fmt.Fprintf(w, "# node %s unreachable: %s\n", st.Name, strings.ReplaceAll(err.Error(), "\n", " "))
			continue
		}
		fmt.Fprintf(w, "# node %s\n", st.Name)
		injectNodeLabel(w, resp.Body, st.Name)
		resp.Body.Close()
	}
}

// injectNodeLabel rewrites one prometheus text exposition, adding
// node="<name>" to every sample line: `m 1` → `m{node="a"} 1`,
// `m{le="5"} 1` → `m{node="a",le="5"} 1`. Comment lines pass through.
func injectNodeLabel(w io.Writer, body io.Reader, node string) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	label := `node="` + node + `"`
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			fmt.Fprintln(w, line)
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			fmt.Fprintln(w, line)
			continue
		}
		name, rest := line[:sp], line[sp:]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			fmt.Fprintf(w, "%s{%s,%s%s\n", name[:i], label, name[i+1:], rest)
		} else {
			fmt.Fprintf(w, "%s{%s}%s\n", name, label, rest)
		}
	}
}

// federatedSLO returns every node's /slo response keyed by node name (raw
// JSON passthrough; unreachable nodes report an error string).
func (r *Router) federatedSLO(w http.ResponseWriter, req *http.Request) {
	out := make(map[string]json.RawMessage)
	for _, st := range r.members.Snapshot() {
		resp, err := r.client.Get(st.URL + "/slo")
		if err != nil {
			blob, _ := json.Marshal(map[string]string{"error": err.Error()})
			out[st.Name] = blob
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
			blob, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("status %d", resp.StatusCode)})
			out[st.Name] = blob
			continue
		}
		out[st.Name] = body
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

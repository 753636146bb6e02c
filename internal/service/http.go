package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// NewHandler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec → 202 + job view
//	POST   /v1/jobs/batch       submit a BatchRequest → 202 + job view
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job view (spec, state, result)
//	GET    /v1/jobs/{id}/events NDJSON event stream, follows to terminal
//	GET    /v1/jobs/{id}/checkpoint  latest saved checkpoint + resume spec
//	DELETE /v1/jobs/{id}        cancel (idempotent)
//	GET    /v1/tenants          per-tenant live accounting (share, quotas)
//	GET    /healthz             200 serving | 503 draining
//	GET    /slo                 SLO burn-rate status (when Config.SLO is set)
//	/metrics, /debug/*          observability (obs.Handler on reg)
//
// Clustered services (Config.Cluster set) additionally serve the
// node-to-node peer protocol (404 when standalone):
//
//	GET    /v1/peer/cache/{key} cache lookup; ?claim=1&wait_ms=N joins the
//	                            cluster-wide single-flight for the key
//	PUT    /v1/peer/cache/{key} write-through store, releases the claim
//	POST   /v1/peer/membership  adopt a fanned-out membership (if newer)
//	POST   /v1/peer/handoff     receive one warm-cache handoff chunk
//	GET    /cluster             this node's membership view (epoch, nodes)
//	POST   /cluster/members     admin join/leave: mint epoch, fan out
//
// Submissions may carry an X-Tenant header naming the tenant to account
// the job to (a body-carried "tenant" field wins); see Config.Tenancy.
//
// Error mapping: 400 invalid spec/body or unknown tenant, 404 unknown id,
// 429 queue full / tenant rate limit / tenant quota (with Retry-After),
// 503 draining or shed (SLO fast burn, or the tenant's live p99 over the
// job's deadline — also with Retry-After; both are transient, so clients
// should back off and retry the same way they do on 429).
func NewHandler(s *Service, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	oh := obs.Handler(reg, obs.Endpoint{Pattern: "/slo", Handler: s.cfg.SLO.Handler()})
	mux.Handle("/metrics", oh)
	mux.Handle("/debug/", oh)
	mux.Handle("/slo", oh)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var js JobSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&js); err != nil {
			http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		applyTenantHeader(&js, r)
		job, err := s.Submit(js)
		if submitError(w, err) {
			return
		}
		writeJSON(w, http.StatusAccepted, job.View())
	})

	mux.HandleFunc("POST /v1/jobs/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		js, err := req.JobSpec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applyTenantHeader(&js, r)
		job, err := s.Submit(js)
		if submitError(w, err) {
			return
		}
		writeJSON(w, http.StatusAccepted, job.View())
	})

	mux.HandleFunc("GET /v1/tenants", s.tenantsHandler)

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		jobs := s.List()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Get(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job.View())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Get(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		ServeEvents(w, r, job.EventsSince)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.exportCheckpoint)

	if s.peers != nil {
		mux.HandleFunc("GET /v1/peer/cache/{key}", s.peerCacheGet)
		mux.HandleFunc("PUT /v1/peer/cache/{key}", s.peerCachePut)
		mux.HandleFunc("POST /v1/peer/membership", s.peerMembershipPost)
		mux.HandleFunc("POST /v1/peer/handoff", s.peerHandoffPost)
		mux.HandleFunc("GET /cluster", s.clusterGet)
		mux.HandleFunc("POST /cluster/members", s.clusterMembersPost)
	}

	return mux
}

// applyTenantHeader fills the spec's tenant from the X-Tenant request
// header when the body did not name one — the header is how routers and
// gateways attribute traffic without rewriting the JSON body. A
// body-carried tenant wins (it survives re-submission of an exported
// spec).
func applyTenantHeader(js *JobSpec, r *http.Request) {
	if js.Tenant == "" {
		js.Tenant = r.Header.Get("X-Tenant")
	}
}

// submitError maps a Submit error onto the response (writing it and
// reporting true), or reports false for a nil error. The transient
// rejections — queue full, rate limit, quota, draining, shed — carry
// Retry-After so well-behaved clients back off instead of hammering; the
// tenant rejections compute it from the tenant's own refill rate.
func submitError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrDeadlineShed):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return true
}

// BatchRequest is the wire format of POST /v1/jobs/batch: either an
// explicit list of per-instance specs, or a template stamped out Count
// times. The resulting batch runs as ONE job whose NDJSON event stream is
// multiplexed by the 1-based Event.Instance id and whose result carries
// one InstanceSummary per instance.
type BatchRequest struct {
	// Template is the spec every instance starts from (ignored when Specs
	// is set).
	Template JobSpec `json:"template"`
	// Count is the number of instances stamped from Template.
	Count int `json:"count,omitempty"`
	// Seeds overrides the per-instance seeds (length must equal Count when
	// both are set; len(Seeds) instances are stamped when Count is 0).
	Seeds []uint64 `json:"seeds,omitempty"`
	// VarySeed gives instance i the seed Template.Seed + i. Without it
	// (and without Seeds) every instance is identical — the cache
	// exercise.
	VarySeed bool `json:"vary_seed,omitempty"`
	// Specs lists the instances explicitly instead of a template.
	Specs []JobSpec `json:"specs,omitempty"`
	// Cache / BatchGroup / Workers / TimeoutMS / MaxRetries / Tenant set
	// the corresponding fields of the batch job.
	Cache      bool   `json:"cache,omitempty"`
	BatchGroup string `json:"batch_group,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	MaxRetries int    `json:"max_retries,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
}

// JobSpec converts the request into the batch JobSpec submitted to the
// service.
func (req BatchRequest) JobSpec() (JobSpec, error) {
	subs := req.Specs
	if len(subs) == 0 {
		count := req.Count
		if count == 0 {
			count = len(req.Seeds)
		}
		if count <= 0 {
			return JobSpec{}, fmt.Errorf("batch request needs specs, count or seeds")
		}
		if len(req.Seeds) > 0 && len(req.Seeds) != count {
			return JobSpec{}, fmt.Errorf("batch request has %d seeds for count %d", len(req.Seeds), count)
		}
		subs = make([]JobSpec, count)
		for i := range subs {
			subs[i] = req.Template
			switch {
			case len(req.Seeds) > 0:
				subs[i].Seed = req.Seeds[i]
			case req.VarySeed:
				seed := req.Template.Seed
				if seed == 0 {
					seed = 1
				}
				subs[i].Seed = seed + uint64(i)
			}
		}
	}
	return JobSpec{
		Batch:      subs,
		Cache:      req.Cache,
		BatchGroup: req.BatchGroup,
		Workers:    req.Workers,
		TimeoutMS:  req.TimeoutMS,
		MaxRetries: req.MaxRetries,
		Tenant:     req.Tenant,
	}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

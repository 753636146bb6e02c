// Command lllload is a closed-loop load generator for the llld daemon:
// each of -c workers repeatedly submits a job and follows its NDJSON event
// stream to the terminal state before submitting the next one. 429
// rejections count toward the reject rate and back off briefly. At the end
// it prints throughput, the end-to-end latency distribution (p50/p95/p99),
// the per-outcome counts, and the per-job trace IDs of the slowest decile —
// the handles to look those jobs up in the daemon's JSONL trace log or
// among the /slo exemplars.
//
// Transient transport failures are retried rather than counted as load
// errors: a 5xx submit response backs off exponentially (capped) and is
// counted separately as a "submit 5xx"; an event stream that dies before
// the terminal "end" line is re-attached with ?from=<seq> and counted as a
// "stream drop". Both counters appear in the final report, so flaky
// transports are visible without poisoning the outcome statistics.
//
// Back-pressure is classified, not lumped: a 429 is queue overflow
// ("reject"), a 503 whose body names admission shedding is the SLO control
// loop refusing a deadline it cannot meet ("shed"), and any other 503
// (draining, restart) stays a retried transient. Both reject and shed
// honor the response's Retry-After header before the worker's next
// attempt, so the closed loop backs off exactly as hard as the daemon
// asked it to.
//
// Against cmd/lllrouter the same flags work unchanged; -cluster
// additionally fetches GET /cluster after the run and appends the
// cluster report: per-node job balance (max/mean spread) and the
// router's migration and lost-job totals. Jobs moved between nodes
// mid-run are visible per job as "migrated" events and counted in the
// outcome summary.
//
// -jobs N bounds the run by completed submissions instead of (or in
// addition to) -duration: the workers stop once N jobs were admitted and
// followed to a terminal state.
//
// -batch N switches every submission to POST /v1/jobs/batch: the -spec
// becomes the template of an N-instance batch job (its distinct instances
// solved concurrently daemon-side). -cache opts submissions into the daemon's
// canonical result cache; combined with -vary-seed=false every submission
// is identical and all but the first are served from the cache — the
// cache/single-flight exercise. -batch cannot be combined with -chaos
// (batch jobs carry no fault-injection fields).
//
// -chaos f marks a fraction f of submissions as chaos jobs: they carry
// fault-injection rates (-chaos-panic / -chaos-drop / -chaos-crash), a
// retry budget (-chaos-retries) and periodic checkpointing
// (-chaos-checkpoint), exercising the daemon's panic isolation and
// retry/resume machinery under load. The report then includes recovery
// latency — the extra time from a job's first "retry" event to its
// terminal state — over all jobs that retried at least once.
//
// -tenants switches to the multi-tenant scenario mode: a comma-separated
// list of name=profile:conc entries spawns conc workers per named tenant,
// each labelling its submissions with the tenant (the spec's "tenant"
// field) and pacing per its profile — "steady" paces submissions evenly,
// "bursty" alternates half-second full-rate bursts with idle gaps, and
// "adversarial" hammers the closed loop as fast as the daemon answers.
// Back-pressure is classified per tenant from the 429 body: a tenant rate
// limit ("throttled"), an exhausted tenant quota ("quota"), a full queue
// ("reject"), plus deadline sheds ("shed"). The report appends a per-tenant
// table: attempts, completed, achieved share of completions, p50/p99 and
// the rejection classes — the fairness ledger for a weighted-tenant run.
//
// Usage:
//
//	lllload -addr http://localhost:8080 -c 8 -duration 30s \
//	        -spec '{"family":"sinkless","n":1024,"degree":3,"algorithm":"dist"}'
//	lllload -addr http://localhost:8080 -c 8 -jobs 50 -duration 2m -chaos 0.5
//	lllload -addr http://localhost:8080 -c 4 -jobs 50 -batch 16 -cache \
//	        -spec '{"family":"sinkless","n":256,"algorithm":"mtpar"}'
//	lllload -addr http://localhost:8080 -duration 30s \
//	        -tenants 'gold=steady:4,silver=steady:2,abuser=adversarial:6'
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lllload:", err)
		os.Exit(1)
	}
}

// outcome is one completed submit attempt.
type outcome struct {
	latency time.Duration // submit → terminal event (successful jobs only)
	// state is the terminal state, or the back-pressure class: "reject"
	// (queue overflow), "throttled" (tenant rate limit), "quota" (tenant
	// quota exhausted), "shed" (deadline shed), or "error".
	state string
	// tenant is the tenant the submission was labelled with (scenario mode).
	tenant  string
	retries int // "retry" events observed on the stream
	// migrated counts "migrated" events: how many times the routing tier
	// moved this job to another node mid-run.
	migrated int
	// recovery is the extra time from the first "retry" event to the
	// terminal state (retried jobs only).
	recovery time.Duration
	// id and trace identify the job daemon-side: trace is the trace ID from
	// the terminal event, the key to the job's spans in the daemon's JSONL
	// trace log and to the /slo exemplars.
	id    string
	trace string
}

type collector struct {
	mu       sync.Mutex
	outcomes []outcome
	// http5xx counts 5xx submit responses that were retried; drops counts
	// event streams that died mid-way and were re-attached.
	http5xx int
	drops   int
}

func (c *collector) add(o outcome) {
	c.mu.Lock()
	c.outcomes = append(c.outcomes, o)
	c.mu.Unlock()
}

func (c *collector) transport(http5xx, drops int) {
	c.mu.Lock()
	c.http5xx += http5xx
	c.drops += drops
	c.mu.Unlock()
}

// chaosCfg parameterizes the chaos fraction of the load.
type chaosCfg struct {
	fraction   float64
	panicRate  float64
	dropRate   float64
	crashRate  float64
	retries    int
	checkpoint int
}

// pick deterministically marks every submission whose sequence number falls
// in the chaos fraction (submission k is chaotic iff frac(k·φ) < fraction,
// a low-discrepancy spread over the sequence).
func (cc chaosCfg) pick(seq int64) bool {
	if cc.fraction <= 0 {
		return false
	}
	const phi = 0.6180339887498949
	_, f := splitFrac(float64(seq) * phi)
	return f < cc.fraction
}

func splitFrac(x float64) (int64, float64) {
	i := int64(x)
	return i, x - float64(i)
}

func run() error {
	addr := flag.String("addr", "http://localhost:8080", "llld base URL")
	concurrency := flag.Int("c", 4, "closed-loop workers (in-flight submissions)")
	duration := flag.Duration("duration", 10*time.Second, "load duration (hard stop even with -jobs)")
	jobs := flag.Int("jobs", 0, "stop after this many admitted jobs reach a terminal state (0: duration-bound only)")
	specJSON := flag.String("spec", `{"family":"sinkless","n":512,"degree":3,"algorithm":"dist"}`, "job spec submitted by every worker")
	seedStep := flag.Bool("vary-seed", true, "give every submission a distinct seed")
	batchSize := flag.Int("batch", 0, "submit batch jobs of this many instances via /v1/jobs/batch (0: solo jobs)")
	useCache := flag.Bool("cache", false, "opt submissions into the daemon's canonical result cache")
	chaos := flag.Float64("chaos", 0, "fraction of submissions made chaos jobs (fault injection + retries + checkpoints)")
	chaosPanic := flag.Float64("chaos-panic", 0.02, "chaos jobs: per-shard-per-round panic probability")
	chaosDrop := flag.Float64("chaos-drop", 0.02, "chaos jobs: per-message drop probability")
	chaosCrash := flag.Float64("chaos-crash", 0, "chaos jobs: per-node-per-round crash-stop probability")
	chaosRetries := flag.Int("chaos-retries", 3, "chaos jobs: max_retries")
	chaosCheckpoint := flag.Int("chaos-checkpoint", 16, "chaos jobs: checkpoint_every")
	clusterReport := flag.Bool("cluster", false, "-addr is an lllrouter: append the GET /cluster balance report")
	tenantsFlag := flag.String("tenants", "", "multi-tenant scenario: name=profile:conc,... with profile steady|bursty|adversarial (overrides -c)")
	flag.Parse()

	var spec map[string]any
	if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
		return fmt.Errorf("bad -spec: %w", err)
	}
	if *batchSize < 0 {
		return fmt.Errorf("-batch %d must be >= 0", *batchSize)
	}
	if *batchSize > 0 && *chaos > 0 {
		return fmt.Errorf("-batch cannot be combined with -chaos (batch jobs carry no fault-injection fields)")
	}
	profiles, err := parseTenantProfiles(*tenantsFlag)
	if err != nil {
		return err
	}
	cc := chaosCfg{
		fraction:   *chaos,
		panicRate:  *chaosPanic,
		dropRate:   *chaosDrop,
		crashRate:  *chaosCrash,
		retries:    *chaosRetries,
		checkpoint: *chaosCheckpoint,
	}

	sc := submitCfg{varySeed: *seedStep, batch: *batchSize, cache: *useCache}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	client := &http.Client{}
	col := &collector{}
	var seq int64
	var seqMu sync.Mutex
	nextSeq := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
		return seq
	}

	// Budget: when -jobs is set, workers claim a slot before submitting and
	// hand it back when the submission never became a job (reject, submit
	// error), so the budget counts admitted jobs followed to terminal.
	var remaining atomic.Int64
	remaining.Store(int64(*jobs))
	claim := func() bool {
		if ctx.Err() != nil {
			return false
		}
		if *jobs <= 0 {
			return true
		}
		for {
			n := remaining.Load()
			if n <= 0 {
				return false
			}
			if remaining.CompareAndSwap(n, n-1) {
				return true
			}
		}
	}
	unclaim := func() {
		if *jobs > 0 {
			remaining.Add(1)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	worker := func(tsc submitCfg, pace func(context.Context, time.Time)) {
		defer wg.Done()
		for claim() {
			o := submitAndFollow(ctx, client, *addr, spec, tsc, nextSeq, cc, col)
			col.add(o)
			if backPressure(o.state) {
				unclaim()
			}
			if pace != nil {
				pace(ctx, start)
			}
		}
	}
	workers := *concurrency
	if len(profiles) == 0 {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go worker(sc, nil)
		}
	} else {
		workers = 0
		for _, p := range profiles {
			tsc := sc
			tsc.tenant = p.name
			for w := 0; w < p.conc; w++ {
				wg.Add(1)
				go worker(tsc, p.pace())
				workers++
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(col, elapsed, workers)
	if len(profiles) > 0 {
		reportTenants(col, profiles)
	}
	if *clusterReport {
		return reportCluster(client, *addr)
	}
	return nil
}

// backPressure reports whether the state names a submission that never
// became an admitted job — the worker hands its -jobs budget slot back.
func backPressure(state string) bool {
	switch state {
	case "reject", "throttled", "quota", "shed", "error":
		return true
	}
	return false
}

// tenantProfile is one entry of the -tenants scenario: conc closed-loop
// workers submitting under the tenant's name with the profile's pacing.
type tenantProfile struct {
	name    string
	profile string // steady | bursty | adversarial
	conc    int
}

// pace returns the per-iteration pacing hook of the profile, or nil for an
// unpaced loop. Steady workers space submissions evenly; bursty workers
// alternate half-second full-rate windows with half-second idle gaps (the
// worst case for a fair scheduler: synchronized backlog spikes);
// adversarial workers never pause — their only brake is the daemon's own
// back-pressure.
func (p tenantProfile) pace() func(context.Context, time.Time) {
	switch p.profile {
	case "steady":
		return func(ctx context.Context, _ time.Time) { sleepCtx(ctx, 50*time.Millisecond) }
	case "bursty":
		const period = 500 * time.Millisecond
		return func(ctx context.Context, start time.Time) {
			if phase := time.Since(start) % (2 * period); phase >= period {
				sleepCtx(ctx, 2*period-phase)
			}
		}
	default: // adversarial
		return nil
	}
}

// parseTenantProfiles parses "gold=steady:4,abuser=adversarial:6" into the
// scenario's tenant profiles; empty input means the mode is off.
func parseTenantProfiles(s string) ([]tenantProfile, error) {
	if s == "" {
		return nil, nil
	}
	var profiles []tenantProfile
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q, want name=profile:conc", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant %q in -tenants", name)
		}
		seen[name] = true
		profile, concStr, _ := strings.Cut(rest, ":")
		switch profile {
		case "steady", "bursty", "adversarial":
		default:
			return nil, fmt.Errorf("bad -tenants profile %q for %q (want steady, bursty or adversarial)", profile, name)
		}
		conc := 1
		if concStr != "" {
			n, err := strconv.Atoi(concStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -tenants concurrency %q for %q", concStr, name)
			}
			conc = n
		}
		profiles = append(profiles, tenantProfile{name: name, profile: profile, conc: conc})
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no tenants in -tenants %q", s)
	}
	return profiles, nil
}

// submitCfg selects the submission shape of the load: solo jobs or batch
// jobs, seed policy, cache opt-in, tenant label.
type submitCfg struct {
	varySeed bool
	batch    int // 0: solo jobs; > 0: batch jobs of this many instances
	cache    bool
	tenant   string // label submissions with this tenant ("": unlabelled)
}

// submitAndFollow runs one closed-loop iteration: POST the spec (retrying
// 5xx with backoff), then stream events until the terminal "end" line,
// re-attaching on mid-stream disconnects. The reported latency spans submit
// to terminal. In batch mode the spec becomes the template of an
// sc.batch-instance batch request.
func submitAndFollow(ctx context.Context, client *http.Client, addr string, spec map[string]any, sc submitCfg, nextSeq func() int64, cc chaosCfg, col *collector) outcome {
	n := nextSeq()
	path := "/v1/jobs"
	var body []byte
	if sc.batch > 0 {
		path = "/v1/jobs/batch"
		tmpl := make(map[string]any, len(spec)+1)
		for k, v := range spec {
			tmpl[k] = v
		}
		if sc.varySeed {
			// Seed base spaced per submission so the vary_seed stamping
			// keeps all instances of all submissions distinct.
			tmpl["seed"] = (n-1)*int64(sc.batch) + 1
		}
		req := map[string]any{
			"template":  tmpl,
			"count":     sc.batch,
			"vary_seed": sc.varySeed,
			"cache":     sc.cache,
		}
		if sc.tenant != "" {
			req["tenant"] = sc.tenant
		}
		body, _ = json.Marshal(req)
	} else {
		if sc.varySeed || sc.cache || sc.tenant != "" || cc.pick(n) {
			s := make(map[string]any, len(spec)+8)
			for k, v := range spec {
				s[k] = v
			}
			if sc.varySeed {
				s["seed"] = n
			}
			if sc.cache {
				s["cache"] = true
			}
			if sc.tenant != "" {
				s["tenant"] = sc.tenant
			}
			if cc.pick(n) {
				s["max_retries"] = cc.retries
				s["checkpoint_every"] = cc.checkpoint
				s["fault_panic_rate"] = cc.panicRate
				s["fault_drop_rate"] = cc.dropRate
				s["fault_crash_rate"] = cc.crashRate
			}
			spec = s
		}
		body, _ = json.Marshal(spec)
	}

	begin := time.Now()
	id, state, http5xx := submitJob(ctx, client, addr, path, body)
	if http5xx > 0 {
		col.transport(http5xx, 0)
	}
	if id == "" {
		return outcome{state: state, tenant: sc.tenant}
	}
	o := followJob(client, addr, id, begin, col)
	o.tenant = sc.tenant
	return o
}

// submitJob POSTs the job, treating 5xx responses as transient: they are
// retried with capped exponential backoff and counted, because a loaded or
// restarting daemon answering 500s is a recovery scenario, not a load
// error. Two back-pressure answers are terminal for the attempt and honor
// the daemon's Retry-After before returning the worker to its loop: 429
// (queue overflow, a "reject") and the 503 whose body names admission
// shedding (the SLO control loop refusing a deadline it cannot meet, a
// "shed"). Any other 503 — draining, restarting — stays a retried 5xx.
func submitJob(ctx context.Context, client *http.Client, addr, path string, body []byte) (id, state string, http5xx int) {
	backoff := 100 * time.Millisecond
	const maxAttempts = 5
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
		if err != nil {
			return "", "error", http5xx
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return "", "error", http5xx
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var view struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil || view.ID == "" {
				return "", "error", http5xx
			}
			return view.ID, "", http5xx
		case resp.StatusCode == http.StatusTooManyRequests:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Closed loop: back off as long as the daemon asked (50ms
			// when it didn't say) so a saturated queue is retried, not
			// hammered. The body distinguishes the three 429 control
			// loops: the tenant's token bucket, the tenant's quota, and
			// the shared queue overflowing.
			sleepCtx(ctx, retryAfter(resp, 50*time.Millisecond))
			switch {
			case bytes.Contains(msg, []byte("rate limit")):
				return "", "throttled", http5xx
			case bytes.Contains(msg, []byte("quota")):
				return "", "quota", http5xx
			}
			return "", "reject", http5xx
		case resp.StatusCode == http.StatusServiceUnavailable:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if bytes.Contains(msg, []byte("shed")) {
				// SLO shed: deliberate admission control, same contract
				// as a 429 — honor Retry-After, report separately.
				sleepCtx(ctx, retryAfter(resp, 50*time.Millisecond))
				return "", "shed", http5xx
			}
			if done := transient5xx(ctx, resp, &http5xx, &backoff, attempt, maxAttempts); done {
				return "", "error", http5xx
			}
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if done := transient5xx(ctx, resp, &http5xx, &backoff, attempt, maxAttempts); done {
				return "", "error", http5xx
			}
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return "", "error", http5xx
		}
	}
}

// transient5xx counts one retryable 5xx and sleeps the backoff — the
// response's Retry-After when present, the exponential schedule otherwise.
// It reports true when the attempt budget or the load window is exhausted.
func transient5xx(ctx context.Context, resp *http.Response, http5xx *int, backoff *time.Duration, attempt, maxAttempts int) bool {
	*http5xx++
	if attempt >= maxAttempts || ctx.Err() != nil {
		return true
	}
	wait := retryAfter(resp, *backoff)
	if !sleepCtx(ctx, wait) {
		return true
	}
	if *backoff *= 2; *backoff > 2*time.Second {
		*backoff = 2 * time.Second
	}
	return false
}

// retryAfter parses the response's Retry-After header (delay-seconds form),
// falling back to def when absent or unparseable. The wait is clamped to
// 5s: a load generator must not be parked indefinitely by one header.
func retryAfter(resp *http.Response, def time.Duration) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return def
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return def
	}
	d := time.Duration(secs) * time.Second
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// sleepCtx sleeps d or until the load window closes; false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// followJob streams the job's events to the terminal line. The stream
// requests deliberately have no deadline: a job admitted before the load
// window closes is followed to completion so its latency is measured. A
// stream that dies before "end" (daemon blip, proxy timeout) is re-attached
// at the next unseen sequence number and counted as a drop.
func followJob(client *http.Client, addr, id string, begin time.Time, col *collector) outcome {
	next := 0
	state := "error"
	retries := 0
	migrated := 0
	trace := ""
	var firstRetry time.Time
	const maxAttaches = 10
	for attach := 1; attach <= maxAttaches; attach++ {
		if attach > 1 {
			col.transport(0, 1)
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := client.Get(addr + "/v1/jobs/" + id + "/events?from=" + strconv.Itoa(next))
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return outcome{state: "error"}
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var e struct {
				Seq   int    `json:"seq"`
				Kind  string `json:"kind"`
				State string `json:"state"`
				Trace string `json:"trace"`
			}
			if json.Unmarshal(sc.Bytes(), &e) != nil {
				continue
			}
			next = e.Seq + 1
			switch e.Kind {
			case "retry":
				retries++
				if firstRetry.IsZero() {
					firstRetry = time.Now()
				}
			case "migrated":
				// The routing tier moved the job to another node with its
				// checkpoint: recovery machinery, measured like a retry.
				migrated++
				if firstRetry.IsZero() {
					firstRetry = time.Now()
				}
			case "end":
				state = e.State
				trace = e.Trace
			}
		}
		resp.Body.Close()
		if state != "error" {
			break // saw the terminal line; the stream is complete
		}
	}
	o := outcome{latency: time.Since(begin), state: state, retries: retries, migrated: migrated, id: id, trace: trace}
	if (retries > 0 || migrated > 0) && !firstRetry.IsZero() && state != "error" {
		o.recovery = time.Since(firstRetry)
	}
	return o
}

func report(col *collector, elapsed time.Duration, concurrency int) {
	outcomes := col.outcomes
	var latencies, recoveries []time.Duration
	var done []outcome
	counts := map[string]int{}
	retried, migratedJobs, migrations := 0, 0, 0
	for _, o := range outcomes {
		counts[o.state]++
		if o.state == "done" {
			latencies = append(latencies, o.latency)
			done = append(done, o)
		}
		if o.migrated > 0 {
			migratedJobs++
			migrations += o.migrated
		}
		if o.retries > 0 || o.migrated > 0 {
			retried++
			if o.recovery > 0 {
				recoveries = append(recoveries, o.recovery)
			}
		}
	}
	total := len(outcomes)
	rejects := counts["reject"]
	sheds := counts["shed"]
	attempts := total
	fmt.Printf("duration:    %v  (%d workers, closed loop)\n", elapsed.Round(time.Millisecond), concurrency)
	fmt.Printf("attempts:    %d  (%.1f/s)\n", attempts, float64(attempts)/elapsed.Seconds())
	fmt.Printf("completed:   %d  (%.1f/s)\n", len(latencies), float64(len(latencies))/elapsed.Seconds())
	if attempts > 0 {
		// Overflow (429, full queue), tenant back-pressure (429, rate limit
		// or quota) and SLO shed (503, deliberate refusal) are different
		// control loops; report them apart.
		fmt.Printf("reject rate: %.2f%%  (%d of %d: queue overflow)\n", 100*float64(rejects)/float64(attempts), rejects, attempts)
		if n := counts["throttled"]; n > 0 {
			fmt.Printf("throttled:   %.2f%%  (%d of %d: tenant rate limit)\n", 100*float64(n)/float64(attempts), n, attempts)
		}
		if n := counts["quota"]; n > 0 {
			fmt.Printf("quota:       %.2f%%  (%d of %d: tenant quota exhausted)\n", 100*float64(n)/float64(attempts), n, attempts)
		}
		if sheds > 0 {
			fmt.Printf("shed rate:   %.2f%%  (%d of %d: admission shed)\n", 100*float64(sheds)/float64(attempts), sheds, attempts)
		}
	}
	if migratedJobs > 0 {
		fmt.Printf("migrated:    %d jobs moved between nodes (%d moves)\n", migratedJobs, migrations)
	}
	var states []string
	for s := range counts {
		states = append(states, s)
	}
	sort.Strings(states)
	var parts []string
	for _, s := range states {
		parts = append(parts, fmt.Sprintf("%s=%d", s, counts[s]))
	}
	fmt.Printf("outcomes:    %s\n", strings.Join(parts, " "))
	if col.http5xx > 0 || col.drops > 0 {
		fmt.Printf("transport:   submit-5xx=%d stream-drops=%d (both retried)\n", col.http5xx, col.drops)
	}
	if retried > 0 {
		fmt.Printf("retried:     %d jobs saw at least one retry or migration\n", retried)
		if len(recoveries) > 0 {
			sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
			fmt.Printf("recovery:    p50=%v p95=%v max=%v (first retry/migration → terminal)\n",
				percentile(recoveries, 0.50).Round(time.Millisecond),
				percentile(recoveries, 0.95).Round(time.Millisecond),
				recoveries[len(recoveries)-1].Round(time.Millisecond))
		}
	}
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("latency:     p50=%v p95=%v p99=%v max=%v\n",
		percentile(latencies, 0.50).Round(time.Microsecond),
		percentile(latencies, 0.95).Round(time.Microsecond),
		percentile(latencies, 0.99).Round(time.Microsecond),
		latencies[len(latencies)-1].Round(time.Microsecond))
	reportSlowest(done)
}

// reportTenants prints the fairness ledger of a -tenants scenario run: one
// line per profile with its attempts, completions, achieved share of all
// completions (the number to hold against the configured weight ratios),
// the completion latency p50/p99, and the back-pressure classes the tenant
// hit. Share is computed over completed jobs — what the scheduler actually
// dispatched — so an adversarial tenant's rejected flood does not count as
// service received.
func reportTenants(col *collector, profiles []tenantProfile) {
	type agg struct {
		attempts, completed              int
		throttled, quota, shed, rejected int
		latencies                        []time.Duration
	}
	byTenant := map[string]*agg{}
	totalDone := 0
	col.mu.Lock()
	outcomes := col.outcomes
	col.mu.Unlock()
	for _, o := range outcomes {
		a := byTenant[o.tenant]
		if a == nil {
			a = &agg{}
			byTenant[o.tenant] = a
		}
		a.attempts++
		switch o.state {
		case "throttled":
			a.throttled++
		case "quota":
			a.quota++
		case "shed":
			a.shed++
		case "reject":
			a.rejected++
		case "done":
			a.completed++
			totalDone++
			a.latencies = append(a.latencies, o.latency)
		}
	}
	fmt.Printf("per tenant:  (%d completions total)\n", totalDone)
	for _, p := range profiles {
		a := byTenant[p.name]
		if a == nil {
			a = &agg{}
		}
		share := 0.0
		if totalDone > 0 {
			share = 100 * float64(a.completed) / float64(totalDone)
		}
		sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
		p50, p99 := percentile(a.latencies, 0.50), percentile(a.latencies, 0.99)
		// One space-separated key=value line per tenant: trivially awk-able,
		// which is how the CI fairness smoke asserts the share ratios.
		fmt.Printf("  %-12s %-14s attempts=%d completed=%d share=%.1f%% p50=%v p99=%v throttled=%d quota=%d shed=%d reject=%d\n",
			p.name, p.profile+":"+strconv.Itoa(p.conc), a.attempts, a.completed, share,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			a.throttled, a.quota, a.shed, a.rejected)
	}
}

// reportSlowest prints the trace IDs of the slowest decile of completed
// jobs (capped at 10 lines), slowest first — the starting points for a
// latency investigation in the daemon's JSONL trace log or against the
// /slo exemplars.
func reportSlowest(done []outcome) {
	if len(done) == 0 {
		return
	}
	sort.Slice(done, func(i, j int) bool { return done[i].latency > done[j].latency })
	n := (len(done) + 9) / 10 // ceil(10%): at least one
	if n > 10 {
		n = 10
	}
	fmt.Printf("slowest %d of %d (trace IDs for the daemon trace log / exemplars):\n", n, len(done))
	for _, o := range done[:n] {
		trace := o.trace
		if trace == "" {
			trace = "-"
		}
		fmt.Printf("  %-10s trace=%-16s latency=%v retries=%d\n", o.id, trace, o.latency.Round(time.Microsecond), o.retries)
	}
}

// reportCluster fetches the router's GET /cluster and prints the balance
// report: per-node tracked jobs against the mean (the acceptance bar is a
// max/mean spread within the router's bounded-load factor), node health,
// and the migration / lost-job totals.
func reportCluster(client *http.Client, addr string) error {
	resp, err := client.Get(addr + "/cluster")
	if err != nil {
		return fmt.Errorf("cluster report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster report: GET /cluster answered %d (is -addr an lllrouter?)", resp.StatusCode)
	}
	var cs struct {
		Epoch int64 `json:"epoch"`
		Nodes []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"nodes"`
		Jobs       int64          `json:"jobs"`
		Migrations int64          `json:"migrations"`
		Lost       int64          `json:"lost"`
		PerNode    map[string]int `json:"per_node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return fmt.Errorf("cluster report: %w", err)
	}

	total, max := 0, 0
	for _, n := range cs.PerNode {
		total += n
		if n > max {
			max = n
		}
	}
	// The balance denominator is the LIVE membership the router reports
	// right now — the cluster is elastic, so the node count at boot means
	// nothing. Down nodes take no traffic; counting them would flatter the
	// spread.
	live := 0
	for _, n := range cs.Nodes {
		if n.State != "down" {
			live++
		}
	}
	mean := 0.0
	if live > 0 {
		mean = float64(total) / float64(live)
	}
	fmt.Printf("cluster:     %d nodes (%d live), epoch %d, %d jobs routed, %d migrations, %d lost\n",
		len(cs.Nodes), live, cs.Epoch, cs.Jobs, cs.Migrations, cs.Lost)
	sort.Slice(cs.Nodes, func(i, j int) bool { return cs.Nodes[i].Name < cs.Nodes[j].Name })
	for _, n := range cs.Nodes {
		fmt.Printf("  node %-8s %-8s jobs=%d\n", n.Name, n.State, cs.PerNode[n.Name])
	}
	if mean > 0 {
		fmt.Printf("balance:     max/mean = %.2f over %d live nodes (max %d over mean %.1f)\n",
			float64(max)/mean, live, max, mean)
	}
	return nil
}

// percentile returns the nearest-rank percentile of the sorted slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

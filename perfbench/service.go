package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/testbench"
)

// Service workload parameters. Two closed-loop clients each submit their
// next job only after the previous one reached a terminal state; jobs are
// timed by polling their status (the SSE stream samples every 100 ms,
// too coarse for jobs of tens of milliseconds).
const (
	serviceClients = 2
	pollEvery      = 5 * time.Millisecond
	// A run submits a fixed number of jobs, whole blocks only: ten per
	// second of run time, at least serviceMinJobs so the p95 latency has
	// minTail samples beyond it. The count does not depend on how fast
	// the service is, so every run does the same work and retains the
	// same results (the server keeps every finished job, so a run that
	// completed more jobs would also read a higher peak RSS).
	serviceJobsPerSecond = 10
	serviceMinJobs       = 200
	serviceSetupReps     = 101
	// serviceSeeds is the number of campaign seeds the randomized jobs
	// draw from; reference.json holds the payload of each.
	serviceSeeds  = 8
	fabricShards  = 2
	fabricChunk   = 200 // splits the default 400-die yield into two shards
	fabricJobKind = "fabric-yield"
)

// serviceBlock is the job mix: every consecutive block of
// len(serviceBlock) jobs holds exactly these kinds, in a seed-shuffled
// order, so every run sees the same proportions. All /v1/campaigns jobs
// run the paper campaigns at their default params; fabric-yield jobs are
// the default yield campaign sharded over /v1/fabric/jobs.
//
// The proportions are a measurement choice, not recorded traffic (there
// is none to replay). Every kind gets at least 20 jobs in a 200-job run,
// the sharded kind 40 for its own median. Noise jobs, whose latency lies
// between that of the fig7/fig8/faults jobs and that of the yield jobs,
// fill the middle 40 % of the sorted latencies, so the overall median
// sits inside one kind's cluster instead of on the gap between two,
// where it would jump with small timing changes.
var serviceBlock = []string{"fig7", "fig8", "faults", "yield", "noise", "noise", "noise", "noise", fabricJobKind, fabricJobKind}

// serviceKinds lists the distinct job kinds of serviceBlock in order.
func serviceKinds() []string {
	var kinds []string
	for i, k := range serviceBlock {
		if i == 0 || serviceBlock[i-1] != k {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// serviceJob is one generated job: its kind, the spec submitted, and the
// reference.json key its payload must match.
type serviceJob struct {
	kind   string
	spec   testbench.Spec
	refKey string
}

// splitmix64 is the generator behind every input the benchmark derives
// from its seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// serviceJobAt is job i of the service workload for a seed: a pure
// function of (seed, i).
func serviceJobAt(seed uint64, i int) serviceJob {
	b, pos := i/len(serviceBlock), i%len(serviceBlock)
	perm := make([]int, len(serviceBlock))
	for k := range perm {
		perm[k] = k
	}
	h := splitmix64(seed ^ splitmix64(uint64(b)))
	for k := len(perm) - 1; k > 0; k-- {
		h = splitmix64(h)
		j := int(h % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	kind := serviceBlock[perm[pos]]
	cs := splitmix64(seed^splitmix64(uint64(i)+0x5eed)) % serviceSeeds
	// Every job runs on benchWorkers campaign workers, as the campaign
	// workloads do; the payloads do not depend on the worker count.
	switch kind {
	case "yield", "noise":
		return serviceJob{kind: kind, spec: testbench.Spec{Campaign: kind, Seed: cs, Workers: benchWorkers}, refKey: fmt.Sprintf("%s/s%d", kind, cs)}
	case fabricJobKind:
		// The sharded run must merge to exactly the single-node payload.
		return serviceJob{kind: kind, spec: testbench.Spec{Campaign: "yield", Seed: cs, Workers: benchWorkers, Chunk: fabricChunk}, refKey: fmt.Sprintf("yield/s%d", cs)}
	}
	return serviceJob{kind: kind, spec: testbench.Spec{Campaign: kind, Workers: benchWorkers}, refKey: kind}
}

// serviceRefSpecs lists every reference key the service workload can
// generate with the spec that produces its payload.
func serviceRefSpecs() map[string]testbench.Spec {
	out := map[string]testbench.Spec{}
	for _, k := range []string{"fig7", "fig8", "faults"} {
		out[k] = testbench.Spec{Campaign: k}
	}
	for s := uint64(0); s < serviceSeeds; s++ {
		for _, k := range []string{"yield", "noise"} {
			out[fmt.Sprintf("%s/s%d", k, s)] = testbench.Spec{Campaign: k, Seed: s}
		}
	}
	return out
}

// serviceStack is the system under test of the service workload: the
// HTTP campaign server and the fabric coordinator behind one loopback
// listener (mounted as cmd/mcserved mounts them), a throwaway durable
// store, and in-process fabric workers leasing shards over HTTP.
type serviceStack struct {
	srv      *serve.Server
	coord    *fabric.Coordinator
	hs       *http.Server
	serveErr chan error
	base     string
	dir      string
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// startStack brings the service up and waits until it answers.
func startStack(ctx context.Context, storeRoot string) (*serviceStack, error) {
	dir, err := os.MkdirTemp(storeRoot, "store-")
	if err != nil {
		return nil, err
	}
	store, err := fabric.OpenStore(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s := &serviceStack{srv: serve.New(ctx), dir: dir, serveErr: make(chan error, 1)}
	s.coord = fabric.NewCoordinator(fabric.Config{Store: store, Metrics: fabric.NewMetrics(s.srv.Metrics())})
	mux := http.NewServeMux()
	mux.Handle("/", s.srv.Handler())
	fh := serve.NewFabric(s.coord).Handler()
	mux.Handle("/v1/fabric/", fh)
	mux.Handle("/v1/shards/", fh)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, errors.Join(err, s.coord.Close(), os.RemoveAll(dir))
	}
	s.hs = &http.Server{Handler: mux}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	wctx, stop := context.WithCancel(ctx)
	s.stop = stop
	for i := 0; i < benchWorkers; i++ {
		w := &fabric.Worker{Backend: &serve.HTTPBackend{Base: s.base}, ID: fmt.Sprintf("bench-w%d", i)}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := w.Run(wctx); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: fabric worker %s: %v\n", w.ID, err)
			}
		}()
	}
	resp, err := http.Get(s.base + "/metrics")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close stops the workers, the listener, every job and the coordinator,
// and removes the store. It returns once every goroutine it started has
// ended.
func (s *serviceStack) close() error {
	s.stop()
	s.wg.Wait()
	err := s.hs.Close()
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	return errors.Join(err, s.coord.Close(), os.RemoveAll(s.dir))
}

// jobRecord is one job's client-side measurement.
type jobRecord struct {
	kind       string
	latency    float64 // submit until the client sees a terminal state, s
	serverSpan float64 // the server's Finished − Created, s (campaign jobs)
	runMs      float64 // Result.Elapsed, ms (campaign jobs)
	err        error
}

// client is one closed-loop submitter.
type client struct {
	http *http.Client
	base string
	tr   *Tracer // nil when untraced
}

// do sends one request and decodes a JSON answer into out, requiring the
// given status code.
func (c *client) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// campaignStatus is the part of a /v1/jobs/{id} answer the client reads.
type campaignStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Finished *time.Time      `json:"finished"`
}

// runJob submits one job, polls it to a terminal state, and checks its
// payload against the reference.
func (c *client) runJob(i int, job serviceJob, ref *Reference) jobRecord {
	rec := jobRecord{kind: job.kind}
	root := c.tr.Begin("job", -1, int64(i))
	start := time.Now()
	var raw json.RawMessage
	if job.kind == fabricJobKind {
		raw, rec.err = c.fabricJob(i, job, root)
	} else {
		var st campaignStatus
		st, rec.err = c.campaignJob(i, job, root)
		raw = st.Result
		if rec.err == nil && st.Finished != nil {
			rec.serverSpan = st.Finished.Sub(st.Created).Seconds()
		}
	}
	rec.latency = time.Since(start).Seconds()
	c.tr.End(root)
	if rec.err != nil {
		return rec
	}
	res, err := testbench.DecodeResult(raw)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.runMs = float64(res.Elapsed) / 1e6
	want, ok := ref.Service[job.refKey]
	if !ok {
		rec.err = fmt.Errorf("no reference for %s", job.refKey)
		return rec
	}
	got, err := digestOf(res)
	if err == nil {
		err = want.compare(got)
	}
	if err != nil {
		rec.err = fmt.Errorf("job %d (%s, %s): %w", i, job.kind, job.refKey, err)
	}
	return rec
}

// campaignJob runs one /v1/campaigns job.
func (c *client) campaignJob(i int, job serviceJob, root int64) (campaignStatus, error) {
	var st campaignStatus
	sp := c.tr.Begin("client.submit", root, int64(i))
	err := c.do(http.MethodPost, "/v1/campaigns", job.spec, http.StatusAccepted, &st)
	c.tr.End(sp)
	if err != nil {
		return st, err
	}
	id := st.ID
	for {
		sp := c.tr.Begin("client.poll", root, int64(i))
		st = campaignStatus{}
		err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &st)
		c.tr.End(sp)
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone:
			return st, nil
		case serve.StateFailed, serve.StateCancelled:
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(pollEvery)
	}
}

// fabricJob runs one sharded /v1/fabric/jobs job and fetches its merged
// result once the client has seen it done.
func (c *client) fabricJob(i int, job serviceJob, root int64) (json.RawMessage, error) {
	id := fmt.Sprintf("bench-%d", i)
	var st serve.FabricJobStatus
	sp := c.tr.Begin("client.submit", root, int64(i))
	err := c.do(http.MethodPost, "/v1/fabric/jobs", serve.FabricSubmit{ID: id, Spec: job.spec, Shards: fabricShards}, http.StatusAccepted, &st)
	c.tr.End(sp)
	if err != nil {
		return nil, err
	}
	for st.Phase != fabric.PhaseDone {
		if st.Phase == fabric.PhaseFailed || st.Phase == fabric.PhaseCancelled {
			return nil, fmt.Errorf("fabric job %s %s: %s", id, st.Phase, st.Failure)
		}
		time.Sleep(pollEvery)
		sp := c.tr.Begin("client.poll", root, int64(i))
		err := c.do(http.MethodGet, "/v1/fabric/jobs/"+id, nil, http.StatusOK, &st)
		c.tr.End(sp)
		if err != nil {
			return nil, err
		}
	}
	var raw json.RawMessage
	return raw, c.do(http.MethodGet, "/v1/fabric/jobs/"+id+"/result", nil, http.StatusOK, &raw)
}

// scrape reads the service's /metrics in JSON form.
func scrape(c *http.Client, base string) (metrics.JSONSnapshot, error) {
	var snap metrics.JSONSnapshot
	resp, err := c.Get(base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// find returns one sample of a family (label "" for unlabelled ones).
func find(snap metrics.JSONSnapshot, family, label string) (metrics.JSONMetric, bool) {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if m.LabelValue == label {
				return m, true
			}
		}
	}
	return metrics.JSONMetric{}, false
}

// scalarDelta is a counter's growth between two scrapes.
func scalarDelta(before, after metrics.JSONSnapshot, family, label string) float64 {
	v := func(s metrics.JSONSnapshot) float64 {
		if m, ok := find(s, family, label); ok && m.Value != nil {
			return *m.Value
		}
		return 0
	}
	return v(after) - v(before)
}

// histDelta is a histogram's growth between two scrapes: observation
// count, sum, and the cumulative bucket counts.
type histDelta struct {
	count   float64
	sum     float64
	les     []float64
	buckets []float64
}

func histogramDelta(before, after metrics.JSONSnapshot, family string) histDelta {
	var d histDelta
	a, ok := find(after, family, "")
	if !ok || a.Count == nil || a.Sum == nil {
		return d
	}
	d.count, d.sum = float64(*a.Count), *a.Sum
	prev := map[float64]uint64{}
	if b, ok := find(before, family, ""); ok && b.Count != nil && b.Sum != nil {
		d.count -= float64(*b.Count)
		d.sum -= *b.Sum
		for _, bk := range b.Buckets {
			prev[bk.LE] = bk.Count
		}
	}
	for _, bk := range a.Buckets {
		d.les = append(d.les, bk.LE)
		d.buckets = append(d.buckets, float64(bk.Count-prev[bk.LE]))
	}
	return d
}

// quantile interpolates q linearly inside the bucket holding it; the
// open top bucket reports its lower edge.
func (d histDelta) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	rank := q * d.count
	lo, below := 0.0, 0.0
	for i, c := range d.buckets {
		if c >= rank {
			hi := d.les[i]
			if i == len(d.buckets)-1 || c == below {
				return lo
			}
			return lo + (hi-lo)*(rank-below)/(c-below)
		}
		lo, below = d.les[i], c
	}
	return lo
}

// serviceRequestRoutes are the serve routes the workload drives, with
// the metric-name suffix each is reported under.
var serviceRequestRoutes = [][2]string{
	{"/v1/campaigns", "v1_campaigns"},
	{"/v1/jobs/{id}", "v1_jobs_id"},
	{"/metrics", "metrics"},
}

// serviceJobs is the number of jobs a run of the given length submits.
func serviceJobs(seconds float64) int {
	n := max(serviceMinJobs, int(math.Ceil(seconds*serviceJobsPerSecond)))
	b := len(serviceBlock)
	return (n + b - 1) / b * b
}

// runService runs the service workload.
func runService(ctx context.Context, cfg runCfg) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, params: map[string]any{
		"clients": serviceClients, "fabric_workers": benchWorkers, "fabric_shards": fabricShards,
		"job_block": serviceBlock, "campaign_seeds": serviceSeeds, "jobs": serviceJobs(cfg.seconds),
		"poll_ms": pollEvery.Milliseconds(),
	}}
	// Start-up takes well under a millisecond, so it is sampled more
	// often than a campaign workload's set-up to keep its median steady.
	var setups []float64
	var stack *serviceStack
	for r := 0; r < serviceSetupReps; r++ {
		t := time.Now()
		s, err := startStack(ctx, outDir)
		if err != nil {
			if stack != nil {
				err = errors.Join(err, stack.close())
			}
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if stack != nil {
			if err := stack.close(); err != nil {
				return nil, errors.Join(err, s.close())
			}
		}
		stack = s
	}
	out.metrics["setup_s"] = median(setups)
	err := driveService(ctx, cfg, stack, out)
	return out, errors.Join(err, stack.close())
}

// driveService runs the closed loop against a started stack and fills in
// the metrics.
func driveService(ctx context.Context, cfg runCfg, stack *serviceStack, out *outcome) error {
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	before, err := scrape(hc, stack.base)
	if err != nil {
		return err
	}
	var tracers []*Tracer
	if cfg.trace {
		tracers = newTracers(serviceClients)
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		records []jobRecord
		wg      sync.WaitGroup
	)
	jobs := serviceJobs(cfg.seconds)
	start := time.Now()
	for k := 0; k < serviceClients; k++ {
		c := &client{http: hc, base: stack.base}
		if cfg.trace {
			c.tr = tracers[k]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= jobs {
					return
				}
				rec := c.runJob(i, serviceJobAt(cfg.seed, i), cfg.ref)
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	after, err := scrape(hc, stack.base)
	if err != nil {
		return err
	}

	var lat, fabLat, overhead, runMs []float64
	done := 0
	for _, r := range records {
		out.attempted++
		lat = append(lat, r.latency)
		if r.err != nil {
			out.fail("%v", r.err)
			continue
		}
		done++
		if r.kind == fabricJobKind {
			fabLat = append(fabLat, r.latency)
			continue
		}
		overhead = append(overhead, (r.latency-r.serverSpan)*1e3)
		runMs = append(runMs, r.runMs)
	}
	m := out.metrics
	m["trials_per_s"] = scalarDelta(before, after, "mccampaign_trials_total", "") / wall
	m["jobs_per_s"] = float64(done) / wall
	m["job_latency_p50_s"] = median(lat)
	out.notes = append(out.notes, fmt.Sprintf("%d jobs (%d sharded) in %.2fs", len(records), len(fabLat), wall))
	byKind := map[string][]float64{}
	for _, r := range records {
		byKind[r.kind] = append(byKind[r.kind], r.latency)
	}
	var kinds []string
	for _, k := range serviceKinds() {
		kinds = append(kinds, fmt.Sprintf("%s %.3f s (%d)", k, median(byKind[k]), len(byKind[k])))
	}
	out.notes = append(out.notes, "median job latency by kind: "+strings.Join(kinds, ", "))
	if !cfg.trace {
		return nil
	}

	for _, name := range layerMetricNames() {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	p95, ok := tailQuantile(lat, 0.95)
	if !ok {
		return fmt.Errorf("only %d job latencies: too few for a p95", len(lat))
	}
	m["serve.job_latency_p95_s"] = p95
	m["serve.job_latency_samples"] = float64(len(lat))
	m["fabric.job_latency_p50_s"] = median(fabLat)
	m["serve.http_overhead_ms"] = median(overhead)
	m["testbench.run_ms"] = median(runMs)
	total := 0.0
	for _, f := range after.Families {
		if f.Name == "mcserved_http_requests_total" {
			for _, s := range f.Metrics {
				total += scalarDelta(before, after, f.Name, s.LabelValue)
			}
		}
	}
	m["serve.requests.total"] = total
	for _, r := range serviceRequestRoutes {
		m["serve.requests."+r[1]] = scalarDelta(before, after, "mcserved_http_requests_total", r[0])
	}
	m["fabric.leases"] = scalarDelta(before, after, "mcfabric_leases_granted_total", "")
	m["fabric.leases_expired"] = scalarDelta(before, after, "mcfabric_leases_expired_total", "")
	m["fabric.checkpoint_bytes"] = scalarDelta(before, after, "mcfabric_checkpoint_bytes_total", "")
	if merge := histogramDelta(before, after, "mcfabric_shard_merge_seconds"); merge.count > 0 {
		m["fabric.merge_ms"] = merge.sum / merge.count * 1e3
	}
	chunks := histogramDelta(before, after, "mccampaign_chunk_seconds")
	m["campaign.chunks"] = chunks.count
	m["campaign.chunk_fold_ms_p50"] = chunks.quantile(0.5) * 1e3
	// The chunk histogram covers the /v1/campaigns jobs: at most one per
	// client at a time, each on benchWorkers workers.
	m["campaign.worker_busy_frac"] = chunks.sum / (wall * serviceClients * benchWorkers)

	// The set-up every job pays inside the server, measured directly.
	warm, _, err := setUp("analytic")
	if err != nil {
		return err
	}
	m["monitor.lut_build_ms"] = warm.lutMs
	m["monitor.lut_certified_frac"] = warm.certFrac
	m["core.golden_ms"] = warm.goldenMs
	m["biquad.first_output_ms"] = warm.firstOutMs
	t := time.Now()
	if _, err := testbench.CalibrateMultiParam(warm.sys, yieldTol); err != nil {
		return err
	}
	m["testbench.calibrate_ms"] = msSince(t)

	spans := allSpans(tracers)
	m["trace.overhead_us"] = float64(len(spans)) / float64(len(records)) * spanCostNs() / 1e3
	out.spans = spans
	return nil
}

// spanCostNs measures what recording one span costs, in nanoseconds.
func spanCostNs() float64 {
	const n = 200_000
	tr := newTracers(1)[0]
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.End(tr.Begin("probe", -1, int64(i)))
	}
	return float64(time.Since(start)) / n
}

// Command mcserved serves the campaign registry over HTTP: every
// testbench campaign becomes reachable with a POST of its declarative
// spec, runs concurrently with streamed progress, and is cancellable
// mid-flight.
//
//	mcserved -addr :8080
//
//	curl localhost:8080/v1/campaigns                  # catalogue + schemas
//	curl -d '{"campaign":"fig4mc","seed":7}' localhost:8080/v1/campaigns
//	curl localhost:8080/v1/jobs/job-1                 # progress / result
//	curl localhost:8080/v1/jobs/job-1/events          # SSE progress stream
//	curl -X POST localhost:8080/v1/jobs/job-1/cancel  # abort mid-campaign
//
// With -store, the instance becomes a fabric coordinator: durable
// sharded jobs live in the store directory, survive kills, and are
// leased out span by span to workers over /v1/shards:
//
//	mcserved -addr :8080 -store /var/mc/jobs          # coordinator
//	mcserved -worker -peer http://host:8080           # worker instance
//
//	curl -d '{"spec":{"campaign":"yield","seed":7},"shards":4}' \
//	     localhost:8080/v1/fabric/jobs
//	curl localhost:8080/v1/fabric/jobs/fab-1          # phase + shard progress
//	curl localhost:8080/v1/fabric/jobs/fab-1/result   # finalized result
//	curl -X POST localhost:8080/v1/fabric/jobs/fab-1/cancel
//
// SIGINT/SIGTERM shut the server down gracefully, cancelling running
// campaigns through the same context plumbing the API's cancel uses; a
// killed coordinator resumes every incomplete fabric job from its last
// durable checkpoint on restart.
//
// -smoke starts the server on an ephemeral port, drives one small
// campaign through its own HTTP API and exits. -fabric-smoke does the
// same for the distributed fabric: a coordinator plus two workers over
// HTTP, one deliberately dropped lease, and a bit-identity check of the
// merged result against the in-process single-node run — the CI gates
// that prove both services end to end without external tooling.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/testbench"
)

// Connection timeouts of the HTTP listeners. A client gets
// readHeaderTimeout to send its request headers, so a stalled or
// trickling client cannot pin a connection (and its goroutine) forever,
// and an idle keep-alive connection is closed after idleTimeout. There
// is deliberately no read or write timeout: a request body is capped by
// the service itself, and an SSE progress stream stays open for as long
// as its campaign runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the http.Server every mcserved listener runs,
// with the connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		storeDir    = flag.String("store", "", "fabric job store directory; enables the coordinator endpoints")
		worker      = flag.Bool("worker", false, "run as a fabric worker instead of serving HTTP")
		peer        = flag.String("peer", "http://127.0.0.1:8080", "coordinator base URL (worker mode)")
		workerID    = flag.String("worker-id", "", "worker id in lease tokens (default host.pid)")
		logFormat   = flag.String("log-format", "", `structured request logging to stderr: "text" (key=value) or "json"; empty disables`)
		smoke       = flag.Bool("smoke", false, "start on an ephemeral port, run one small campaign through the HTTP API, and exit")
		fabricSmoke = flag.Bool("fabric-smoke", false, "run the distributed fabric end to end in-process (coordinator + two HTTP workers) and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *fabricSmoke:
		err = runFabricSmoke(ctx)
	case *worker:
		err = runWorker(ctx, *peer, *workerID)
	default:
		err = run(ctx, *addr, *storeDir, *logFormat, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcserved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, addr, storeDir, logFormat string, smoke bool) error {
	if smoke {
		addr = "127.0.0.1:0"
	}
	if logFormat != "" && logFormat != serve.LogText && logFormat != serve.LogJSON {
		return fmt.Errorf("bad -log-format %q (want %q or %q)", logFormat, serve.LogText, serve.LogJSON)
	}
	srv := serve.New(ctx)
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if storeDir != "" {
		store, err := fabric.OpenStore(storeDir)
		if err != nil {
			return err
		}
		// The coordinator registers into the serve registry, so one
		// GET /metrics scrape covers both the job engine and the fabric.
		coord := fabric.NewCoordinator(fabric.Config{Store: store, Metrics: fabric.NewMetrics(srv.Metrics())})
		defer func() { _ = coord.Close() }() // shutdown path; job logs flush on every append
		if err := coord.RecoverAll(ctx); err != nil {
			return err
		}
		fh := serve.NewFabric(coord).Handler()
		mux.Handle("/v1/fabric/", fh)
		mux.Handle("/v1/shards/", fh)
		fmt.Printf("mcserved: fabric coordinator over %s (%d jobs recovered)\n", storeDir, len(coord.Jobs()))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(serve.AccessLog(os.Stderr, logFormat, mux))
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("mcserved listening on http://%s\n", ln.Addr())
	if smoke {
		err := smokeTest("http://" + ln.Addr().String())
		_ = hs.Close() // smoke exit path; the smokeTest error is the verdict
		<-errCh
		return err
	}
	select {
	case <-ctx.Done():
		fmt.Println("mcserved: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
		<-errCh
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// runWorker joins a remote coordinator's fabric and executes leased
// shards until the process is signalled.
func runWorker(ctx context.Context, peer, id string) error {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	w := &fabric.Worker{Backend: &serve.HTTPBackend{Base: peer}, ID: id}
	fmt.Printf("mcserved: worker %s pulling shards from %s\n", id, peer)
	return w.Run(ctx)
}

// smokeTest exercises the service end to end: catalogue, submit, poll to
// completion, and print the campaign text.
func smokeTest(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/v1/campaigns")
	if err != nil {
		return err
	}
	var infos []struct {
		Name string `json:"name"`
	}
	err = json.NewDecoder(resp.Body).Decode(&infos)
	_ = resp.Body.Close() // body fully consumed; decode errors surface below
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		return errors.New("smoke: empty campaign catalogue")
	}
	fmt.Printf("smoke: catalogue lists %d campaigns\n", len(infos))

	spec := `{"campaign":"fig4mc","seed":7,"params":{"monitor":2,"dies":25,"cols":11}}`
	resp, err = client.Post(base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		return err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close() // body fully consumed; decode errors surface below
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("smoke: submit status %s", resp.Status)
	}
	fmt.Printf("smoke: submitted %s as %s\n", st.Spec.Campaign, st.ID)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err = client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close() // body fully consumed; decode errors surface below
		if err != nil {
			return err
		}
		if st.State != serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: job still running after 60s (progress %d/%d)",
				st.Progress.Done, st.Progress.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != serve.StateDone || st.Result == nil {
		return fmt.Errorf("smoke: job ended %q: %s", st.State, st.Error)
	}
	fmt.Printf("smoke: %s done in %v\n%s", st.ID, st.Result.Elapsed.Round(time.Millisecond), st.Result.Text)

	// The metrics endpoint must expose the run in both formats.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	text, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully consumed; errors surface below
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(text), "mccampaign_trials_total") {
		return fmt.Errorf("smoke: /metrics text scrape missing trial counter (status %s)", resp.Status)
	}
	resp, err = client.Get(base + "/metrics?format=json")
	if err != nil {
		return err
	}
	var snap struct {
		Families []struct {
			Name string `json:"name"`
		} `json:"families"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	_ = resp.Body.Close() // body fully consumed; decode errors surface below
	if err != nil {
		return err
	}
	if len(snap.Families) == 0 {
		return errors.New("smoke: /metrics JSON scrape has no families")
	}
	fmt.Printf("smoke: /metrics exposes %d families in both formats\n", len(snap.Families))
	return nil
}

// runFabricSmoke proves the distributed fabric end to end: an HTTP
// coordinator over a throwaway store, a deliberately dropped lease, two
// workers that only speak the wire protocol, and a bit-identity check
// of the merged result against the in-process single-node run.
func runFabricSmoke(ctx context.Context) error {
	spec := testbench.Spec{
		Campaign:   "yield",
		Seed:       5,
		Chunk:      64,
		Checkpoint: 64,
		Params:     map[string]any{"n": 256},
	}
	fmt.Println("fabric-smoke: single-node baseline (yield, n=256)")
	base, err := testbench.Run(ctx, spec)
	if err != nil {
		return err
	}
	want, err := json.Marshal(base.Payload)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "mcfabric-smoke-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // throwaway store; best-effort cleanup
	store, err := fabric.OpenStore(dir)
	if err != nil {
		return err
	}
	coord := fabric.NewCoordinator(fabric.Config{Store: store, LeaseTTL: 300 * time.Millisecond})
	defer func() { _ = coord.Close() }() // smoke exit path; verdict already decided
	fh := serve.NewFabric(coord).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer(fh)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("fabric-smoke: coordinator on %s, store %s\n", baseURL, dir)

	client := &http.Client{Timeout: 10 * time.Second}
	sub := `{"id":"smoke","spec":{"campaign":"yield","seed":5,"chunk":64,"checkpoint":64,"params":{"n":256}},"shards":2}`
	resp, err := client.Post(baseURL+"/v1/fabric/jobs", "application/json", strings.NewReader(sub))
	if err != nil {
		return err
	}
	_ = resp.Body.Close() // status code is the verdict here
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("fabric-smoke: submit status %s", resp.Status)
	}
	fmt.Println("fabric-smoke: submitted job smoke across 2 shards")

	// Drop a lease on purpose: a ghost worker takes shard 0 and goes
	// silent; the TTL must requeue it for the real workers.
	backend := &serve.HTTPBackend{Base: baseURL, Client: client}
	ghost, ok, err := backend.Lease(ctx, "ghost")
	if err != nil || !ok {
		return fmt.Errorf("fabric-smoke: ghost lease: ok=%v err=%v", ok, err)
	}
	fmt.Printf("fabric-smoke: ghost worker holds shard %d and will never heartbeat\n", ghost.Shard)

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{Backend: backend, ID: fmt.Sprintf("w%d", i), Poll: 20 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				fmt.Fprintf(os.Stderr, "fabric-smoke: worker %s: %v\n", w.ID, err)
			}
		}()
	}
	res, err := coord.Wait(ctx, "smoke")
	stopWorkers()
	wg.Wait()
	_ = hs.Close() // smoke exit path; the comparison below is the verdict
	<-serveErr
	if err != nil {
		return err
	}

	got, err := json.Marshal(res.Payload)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("fabric-smoke: merged payload differs from single-node run\nfabric:      %s\nsingle-node: %s", got, want)
	}
	if err := backend.Heartbeat(ctx, ghost, 0, nil); err == nil {
		return errors.New("fabric-smoke: ghost lease still valid after expiry")
	}
	fmt.Println("fabric-smoke: dropped lease was re-issued; ghost token refused")
	fmt.Printf("fabric-smoke: merged result bit-identical to single-node run\n%s", res.Text)
	return nil
}

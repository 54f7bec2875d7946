package fabric

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

// DefaultPoll is how long a worker sleeps between Lease calls when the
// coordinator has nothing pending.
const DefaultPoll = 250 * time.Millisecond

// Worker pulls shard leases from a Backend and executes them: it
// compiles the lease's spec into its sharded form, runs the remaining
// span from the lease's restored checkpoint, heartbeats while the span
// runs (piggybacking every checkpoint blob so an expiry later resumes
// from it), and reports the span's accumulator. A heartbeat answered
// with ErrLeaseRevoked or ErrUnknownLease cancels the span's context —
// that is how a coordinator-side cancel or expiry reaches the trial
// loop. Worker methods are not safe for concurrent use; run one
// goroutine per Worker.
type Worker struct {
	// Backend is the coordinator surface; required.
	Backend Backend
	// ID names the worker inside lease tokens; required.
	ID string
	// Compile resolves lease specs to their sharded form; nil selects
	// testbench.Sharder.
	Compile CompileFunc
	// Poll is the idle sleep between Lease calls; <= 0 selects
	// DefaultPoll.
	Poll time.Duration

	// The last compiled job: consecutive leases of one job (requeues,
	// many shards) compile once, and a worker never holds more than one
	// compiled run — each keeps a whole System (zone LUT, scan grids,
	// golden signature) alive.
	compiledJob string
	compiled    *testbench.ShardRun
}

// Run leases and executes shards until ctx is cancelled, polling when
// nothing is pending. Cancellation returns nil: a stopping worker is
// not an error, its leases expire and requeue.
func (w *Worker) Run(ctx context.Context) error {
	for {
		worked, err := w.RunOne(ctx)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil
		case err != nil:
			return err
		case worked:
			continue
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(w.poll()):
		}
	}
}

// RunOne leases at most one shard and runs it to completion (report,
// failure, or abandonment). It returns false when nothing was pending.
func (w *Worker) RunOne(ctx context.Context) (bool, error) {
	ls, ok, err := w.Backend.Lease(ctx, w.ID)
	if err != nil || !ok {
		return false, err
	}
	return true, w.runLease(ctx, ls)
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return DefaultPoll
}

// sharded resolves the lease's spec, reusing the last compiled run when
// the lease belongs to the same job and replacing it otherwise.
func (w *Worker) sharded(ctx context.Context, ls *Lease) (*testbench.ShardRun, error) {
	if w.compiled != nil && w.compiledJob == ls.Job {
		return w.compiled, nil
	}
	w.compiledJob, w.compiled = "", nil // release the old run before compiling
	compile := w.Compile
	if compile == nil {
		compile = defaultCompile
	}
	run, err := compile(ctx, ls.Spec)
	if err != nil {
		return nil, err
	}
	w.compiledJob, w.compiled = ls.Job, run
	return run, nil
}

// runLease executes one leased span: resume from the lease's checkpoint,
// heartbeat at TTL/3, piggyback checkpoints, report the blob.
func (w *Worker) runLease(ctx context.Context, ls *Lease) error {
	run, err := w.sharded(ctx, ls)
	if err != nil {
		// A spec the worker cannot compile is deterministic — surface it
		// as the shard's failure rather than leasing it forever.
		return w.failShard(ctx, ls, "compile: "+err.Error())
	}

	spanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var lost error
	abandon := func(err error) {
		mu.Lock()
		if lost == nil {
			lost = err
		}
		mu.Unlock()
		cancel()
	}

	interval := ls.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-spanCtx.Done():
				return
			case <-ticker.C:
				if err := w.Backend.Heartbeat(ctx, ls, 0, nil); err != nil {
					abandon(err)
					return
				}
			}
		}
	}()

	// Every engine checkpoint rides a heartbeat to the coordinator, so
	// the durable store is never further behind than one cadence.
	sink := func(acc []byte, through int) error {
		if err := w.Backend.Heartbeat(ctx, ls, through, acc); err != nil {
			abandon(err)
			return err
		}
		return nil
	}

	acc, runErr := run.Run(spanCtx, campaign.Span{Lo: ls.Through, Hi: ls.Span.Hi}, ls.Acc, sink)
	cancel()
	<-hbDone

	mu.Lock()
	err = lost
	mu.Unlock()
	switch {
	case err != nil:
		// The lease is gone (revoked, superseded, or the coordinator is
		// unreachable). Abandon quietly: the shard requeues from its last
		// persisted checkpoint, and revocation is the cancellation path
		// working as designed.
		if errors.Is(err, ErrLeaseRevoked) || errors.Is(err, ErrUnknownLease) {
			return nil
		}
		return err
	case runErr != nil:
		if ctx.Err() != nil {
			// The worker itself is shutting down; the lease expires and
			// requeues on its own.
			return ctx.Err()
		}
		return w.failShard(ctx, ls, runErr.Error())
	}
	return w.report(ctx, ls, acc)
}

// report delivers the span's blob; a lease that died in the last
// instant is not the worker's problem.
func (w *Worker) report(ctx context.Context, ls *Lease, acc []byte) error {
	err := w.Backend.Report(ctx, ls, acc)
	if errors.Is(err, ErrLeaseRevoked) || errors.Is(err, ErrUnknownLease) {
		return nil
	}
	return err
}

// failShard reports a deterministic span failure. The job fails as a
// whole on the coordinator side; the worker keeps serving other jobs,
// so a successfully delivered failure is not the worker's error.
func (w *Worker) failShard(ctx context.Context, ls *Lease, msg string) error {
	err := w.Backend.Fail(ctx, ls, msg)
	if errors.Is(err, ErrLeaseRevoked) || errors.Is(err, ErrUnknownLease) {
		return nil
	}
	return err
}

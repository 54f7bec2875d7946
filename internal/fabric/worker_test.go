package fabric

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/testbench"
)

// scriptBackend hands out a fixed sequence of leases and accepts every
// heartbeat and report.
type scriptBackend struct {
	leases   []*Lease
	reported int
}

func (s *scriptBackend) Lease(context.Context, string) (*Lease, bool, error) {
	if len(s.leases) == 0 {
		return nil, false, nil
	}
	ls := s.leases[0]
	s.leases = s.leases[1:]
	return ls, true, nil
}

func (s *scriptBackend) Heartbeat(context.Context, *Lease, int, []byte) error { return nil }

func (s *scriptBackend) Report(context.Context, *Lease, []byte) error {
	s.reported++
	return nil
}

func (s *scriptBackend) Fail(_ context.Context, ls *Lease, msg string) error {
	return fmt.Errorf("shard %s/%d failed: %s", ls.Job, ls.Shard, msg)
}

// countingCompile wraps synthCompile, counting compilations and tracking
// how many compiled runs are still reachable through finalizers.
type countingCompile struct {
	compiles atomic.Int64
	live     atomic.Int64
}

func (c *countingCompile) compile(ctx context.Context, spec testbench.Spec) (*testbench.ShardRun, error) {
	run, err := synthCompile(ctx, spec)
	if err != nil {
		return nil, err
	}
	c.compiles.Add(1)
	c.live.Add(1)
	runtime.SetFinalizer(run, func(*testbench.ShardRun) { c.live.Add(-1) })
	return run, nil
}

// settledLive collects garbage until at most want compiled runs remain
// reachable (finalizers run asynchronously) or a deadline passes, and
// returns the live count.
func (c *countingCompile) settledLive(want int64) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for c.live.Load() > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return c.live.Load()
}

func scriptLease(job string, shard, n int) *Lease {
	spec := synthSpec(n, uint64(len(job)), 64, 0)
	return &Lease{Job: job, Shard: shard, Span: campaign.Span{Lo: 0, Hi: n}, Spec: spec, Token: job, TTL: time.Minute}
}

// TestWorkerKeepsOnlyLastCompiledJob: a worker alternating between jobs
// recompiles on every switch and never keeps more than one compiled run
// (each holds a whole System alive), while back-to-back leases of one
// job compile once.
func TestWorkerKeepsOnlyLastCompiledJob(t *testing.T) {
	ctx := context.Background()
	const jobs, rounds = 3, 4
	cc := &countingCompile{}
	b := &scriptBackend{}
	for r := 0; r < rounds; r++ {
		for j := 0; j < jobs; j++ {
			b.leases = append(b.leases, scriptLease(fmt.Sprintf("job%d", j), r, 100))
		}
	}
	w := &Worker{Backend: b, ID: "w0", Compile: cc.compile}
	for i := 0; i < jobs*rounds; i++ {
		if worked, err := w.RunOne(ctx); err != nil || !worked {
			t.Fatalf("lease %d: worked %v, err %v", i, worked, err)
		}
		if live := cc.settledLive(1); live > 1 {
			t.Fatalf("after lease %d the worker keeps %d compiled runs, want <= 1", i, live)
		}
	}
	if got := cc.compiles.Load(); got != jobs*rounds {
		t.Fatalf("alternating leases compiled %d times, want %d (one per job switch)", got, jobs*rounds)
	}

	cc = &countingCompile{}
	b = &scriptBackend{}
	for s := 0; s < 5; s++ {
		b.leases = append(b.leases, scriptLease("same", s, 100))
	}
	w = &Worker{Backend: b, ID: "w1", Compile: cc.compile}
	for {
		worked, err := w.RunOne(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !worked {
			break
		}
	}
	if b.reported != 5 {
		t.Fatalf("reported %d shards, want 5", b.reported)
	}
	if got := cc.compiles.Load(); got != 1 {
		t.Fatalf("repeated leases of one job compiled %d times, want 1", got)
	}
}

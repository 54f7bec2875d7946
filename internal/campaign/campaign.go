package campaign

import (
	"context"
	"runtime"

	"repro/internal/rng"
)

// Engine configures a campaign run. The zero value is ready to use: all
// CPUs and root seed 0.
type Engine struct {
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	// The pool never exceeds the trial count. Results do not depend on
	// this value — it only sets the parallelism.
	Workers int
	// Seed is the root seed for Stream. Trials that pre-derive their own
	// streams (to stay bit-compatible with an older serial seeding
	// order) never consult it.
	Seed uint64
	// Progress, when non-nil, is invoked after every completed trial with
	// the number of trials finished so far and the total trial count
	// (Reduce ticks it once per completed chunk instead, with the
	// cumulative trial count). Calls are serialized and must not block;
	// the reported count strictly increases, and it observes the run but
	// never affects its results.
	Progress func(done, total int)
	// Chunk is the number of trials one reduction chunk covers (Reduce
	// only); <= 0 selects DefaultChunk. The chunk size is part of the
	// result contract of a non-associative reduction: at a fixed chunk
	// size the merged accumulator is bit-identical at any worker count,
	// while different chunks may group floating-point folds
	// differently. Run ignores it (it always dispatches single trials).
	Chunk int
	// Checkpoint is the trial count between checkpoint callbacks of a
	// span reduction (ReduceSpanScratch with a CheckpointFunc); <= 0
	// selects DefaultCheckpoint. It is rounded down to whole chunks
	// (minimum one), so every checkpoint lands on a chunk boundary and a
	// resumed run regroups nothing. Checkpointing observes a run but
	// never affects its result, so the cadence — unlike Chunk — is not
	// part of the reproducibility contract.
	Checkpoint int
	// Meter, when non-nil, observes the streaming reduction engine:
	// pool size at ReduceStart, chunk fold start/completion events (see
	// Meter). Like Progress it is called concurrently, must not block,
	// and observes a run without affecting its results. Run/RunScratch
	// ignore it — per-trial observation there is Progress.
	Meter Meter
}

// meter resolves the configured Meter, defaulting to a no-op.
func (e Engine) meter() Meter {
	if e.Meter != nil {
		return e.Meter
	}
	return nopMeter{}
}

// Stream returns trial i's private random substream — a pure function of
// (Seed, i), so a trial may derive it concurrently from inside the pool.
// Trials that need randomness call this; the engine itself never draws.
func (e Engine) Stream(i int) *rng.Stream { return rng.NewSub(e.Seed, uint64(i)) }

// PoolSize resolves the effective worker count for n units of work
// (trials, or chunks of a reduction): Workers, or runtime.NumCPU() when
// unset, capped at n and at least one.
func (e Engine) PoolSize(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes n independent trials across the pool and returns their
// results in trial order. A trial needing randomness derives its private
// substream with e.Stream(i); it must not touch state shared with other
// trials. On failure the error of the lowest-index failing trial is
// returned; when ctx is cancelled mid-run, no further trials start and
// ctx.Err() is returned once the in-flight trials drain.
func Run[T any](ctx context.Context, e Engine, n int, trial func(i int) (T, error)) ([]T, error) {
	return RunScratch(ctx, e, n,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return trial(i) })
}

// RunScratch is Run with per-worker scratch state: newScratch is called
// once per worker and its value is threaded into every trial that worker
// executes. Use it for reusable buffers (capture scratch, device slices)
// so trial fan-out does not multiply allocations. Scratch must not affect
// results — a trial reading stale scratch contents would break the
// worker-count independence the engine guarantees.
//
// It is the span [0, n) of the reduction engine at one trial per chunk,
// with a reducer that stores each result in its indexed slot: dispatch
// and Progress stay per trial, and the Meter is not consulted.
func RunScratch[T, S any](ctx context.Context, e Engine, n int, newScratch func() S, trial func(i int, scratch S) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	e.Chunk, e.Meter = 1, nil
	slots := Reducer[T, struct{}]{
		Fold: func(acc struct{}, i int, v T) struct{} {
			out[i] = v
			return acc
		},
		Merge: func(into, _ struct{}) struct{} { return into },
	}
	if _, err := ReduceSpanScratch(ctx, e, Span{Lo: 0, Hi: n}, nil, nil, slots, newScratch, trial); err != nil {
		return nil, err
	}
	return out, nil
}

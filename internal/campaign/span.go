package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultCheckpoint is the trial count between checkpoint callbacks when
// Engine.Checkpoint is unset. Large enough that serializing and
// persisting the accumulator is noise against a checkpoint interval's
// worth of trial work (the BenchmarkCheckpointOverhead pin holds the
// default under 5%); small enough that a killed multi-hour campaign
// loses minutes, not hours.
const DefaultCheckpoint = 65536

// Span is a contiguous trial index range [Lo, Hi) of a campaign's trial
// space. Chunk boundaries stay aligned to trial 0 regardless of Lo, so a
// span reduction folds exactly the chunks the full-range reduction
// would: resuming at a checkpoint (Lo on a chunk boundary) or sharding a
// campaign into chunk-aligned spans regroups nothing.
type Span struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of trials the span covers.
func (s Span) Len() int { return s.Hi - s.Lo }

// CheckpointFunc receives the merged accumulator covering every span
// trial below through (a chunk boundary) — the hook durable reductions
// persist their state with. It runs on the merge path: it may marshal
// and write acc but must not mutate or retain it, and a non-nil error
// aborts the reduction (a checkpoint that cannot be persisted is a
// failure, not a warning — the errdrop invariant applied to durability).
type CheckpointFunc[A any] func(acc A, through int) error

// CheckpointReducer couples a streaming Reducer with a binary codec over
// its accumulator state, making the reduction durable: the accumulator
// can be checkpointed mid-run and restored bit-exactly (Unmarshal ∘
// Marshal = identity), so a resumed reduction continues the same
// left-to-right merge chain and lands on the same bits as an
// uninterrupted one. Sharding additionally requires Merge to be exactly
// associative (integer counts, bit-exact min/max, ordered concatenation
// — the accumulator shapes this repository's campaigns use), because
// per-shard accumulators merge as (s0 ⊕ s1) ⊕ s2 rather than one chunk
// at a time.
type CheckpointReducer[T, A any] struct {
	Reducer[T, A]
	// Marshal serializes an accumulator; the encoding must be canonical
	// (equal state, equal bytes) so resumed results can be pinned.
	Marshal func(acc A) ([]byte, error)
	// Unmarshal restores an accumulator bit-exactly from Marshal's bytes,
	// rejecting malformed input with an error.
	Unmarshal func(data []byte) (A, error)
}

// ReduceSpan is ReduceSpanScratch without per-worker scratch state.
func ReduceSpan[T, A any](ctx context.Context, e Engine, span Span, init *A, ckpt CheckpointFunc[A], r Reducer[T, A], trial func(i int) (T, error)) (A, error) {
	return ReduceSpanScratch(ctx, e, span, init, ckpt, r,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return trial(i) })
}

// ReduceSpanScratch executes the trials of one span through the
// streaming reduction engine — the durable, shardable generalization of
// ReduceScratch, which is the span [0, n) with no restored state.
//
// init, when non-nil, is the accumulator covering every trial below
// span.Lo (restored from a checkpoint); each of the span's chunks merges
// into it in ascending chunk order, continuing the exact left-to-right
// merge chain of an uninterrupted run. ckpt, when non-nil, is invoked on
// the merge path every Engine.Checkpoint trials (rounded down to whole
// chunks, default DefaultCheckpoint) with the merged prefix and the
// first uncovered trial index — always a chunk boundary, so resuming at
// it reproduces the remaining fold bit for bit.
//
// Error, cancellation and progress semantics match ReduceScratch, with
// progress counted within the span; a checkpoint error aborts the run
// like a trial error at its boundary.
func ReduceSpanScratch[T, A, S any](ctx context.Context, e Engine, span Span, init *A, ckpt CheckpointFunc[A], r Reducer[T, A], newScratch func() S, trial func(i int, scratch S) (T, error)) (A, error) {
	var zero A
	newAcc := r.New
	if newAcc == nil {
		newAcc = func() A { var a A; return a }
	}
	if r.Fold == nil {
		return zero, errors.New("campaign: Reduce needs a Fold function")
	}
	if span.Lo < 0 || span.Hi < span.Lo {
		return zero, fmt.Errorf("campaign: bad span [%d, %d)", span.Lo, span.Hi)
	}
	if span.Len() == 0 {
		if init != nil {
			return *init, nil
		}
		return newAcc(), nil
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	chunk := e.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	// Chunk indices are global — aligned to trial 0, not to span.Lo — so
	// the span folds exactly the (partial) chunks a full-range run would.
	c0 := span.Lo / chunk
	cN := (span.Hi + chunk - 1) / chunk // one past the last chunk index
	nChunks := cN - c0
	if (nChunks > 1 || init != nil) && r.Merge == nil {
		return zero, errors.New("campaign: Reduce spanning multiple chunks needs a Merge function")
	}
	ckptEvery := 0 // in chunks; 0 disables
	if ckpt != nil {
		cadence := e.Checkpoint
		if cadence <= 0 {
			cadence = DefaultCheckpoint
		}
		ckptEvery = cadence / chunk
		if ckptEvery < 1 {
			ckptEvery = 1
		}
	}
	n := span.Len()
	// Progress ticks once per chunk that folded any trial and is
	// strictly monotone: the running count is advanced and reported under
	// one mutex, so an observer never sees it decrease even when workers
	// retire chunks out of order. One lock per chunk is noise next to a
	// chunk's worth of trial work.
	var progressMu sync.Mutex
	done := 0
	tick := func(trials int) {
		if trials == 0 || e.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done += trials
		e.Progress(done, n)
	}
	// runChunk folds chunk c's in-span trials in ascending index order
	// into a fresh accumulator. On a trial error (or mid-chunk
	// cancellation) it stops at that trial; the index of the failing
	// trial is implicit in the error being the first of the chunk.
	// The meter brackets the fold — ChunkDone fires on every exit path
	// with the folded count, so a metered observer's start/done
	// accounting always closes.
	meter := e.meter()
	runChunk := func(c int, scratch S) (A, int, error) {
		lo := max(c*chunk, span.Lo)
		hi := min((c+1)*chunk, span.Hi)
		acc := newAcc()
		meter.ChunkStart(c)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				meter.ChunkDone(c, i-lo)
				tick(i - lo)
				return acc, i - lo, err
			}
			v, err := trial(i, scratch)
			if err != nil {
				meter.ChunkDone(c, i-lo)
				tick(i - lo)
				return acc, i - lo, err
			}
			acc = r.Fold(acc, i, v)
		}
		meter.ChunkDone(c, hi-lo)
		tick(hi - lo)
		return acc, hi - lo, nil
	}
	// checkpointAt invokes ckpt after chunk c merged, when c closes a
	// cadence interval and is not the final chunk (the caller gets the
	// final accumulator directly). c+1 < cN, so the boundary is whole.
	checkpointAt := func(c int, acc A) error {
		if ckptEvery == 0 || c+1 >= cN || (c-c0+1)%ckptEvery != 0 {
			return nil
		}
		return ckpt(acc, (c+1)*chunk)
	}

	workers := e.PoolSize(nChunks)
	meter.ReduceStart(workers, n)
	if workers == 1 {
		scratch := newScratch()
		var global A
		hasGlobal := false
		if init != nil {
			global, hasGlobal = *init, true
		}
		for c := c0; c < cN; c++ {
			acc, _, err := runChunk(c, scratch)
			if err != nil {
				return zero, err
			}
			if hasGlobal {
				global = r.Merge(global, acc)
			} else {
				global, hasGlobal = acc, true
			}
			if err := checkpointAt(c, global); err != nil {
				return zero, err
			}
		}
		return global, nil
	}

	// Parallel path. Chunks flow feeder -> workers -> merger; the merger
	// folds them into the global accumulator in ascending chunk order. A
	// token window bounds dispatched-but-unmerged chunks to 2*workers, so
	// a slow chunk 0 cannot let faster workers pile up O(nChunks)
	// accumulators — this is what keeps memory O(workers), not O(trials).
	type chunkOut struct {
		c   int
		acc A
		err error
	}
	window := 2 * workers
	next := make(chan int)
	results := make(chan chunkOut, window) // never blocks a worker: outstanding <= window
	tokens := make(chan struct{}, window)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newScratch()
			for c := range next {
				// A cancelled context stops the work, not the drain: skip
				// the chunk but keep consuming until the channel closes,
				// and still report it so the merger's accounting closes.
				if err := ctx.Err(); err != nil {
					results <- chunkOut{c: c, err: err}
					continue
				}
				acc, _, err := runChunk(c, scratch)
				if err != nil {
					// Real trial errors stop the feeder early; ctx errors
					// are already handled by its Done branch.
					failed.Store(true)
				}
				results <- chunkOut{c: c, acc: acc, err: err}
			}
		}()
	}

	var (
		global     A
		hasGlobal  bool
		firstErr   error
		mergerDone = make(chan struct{})
	)
	if init != nil {
		global, hasGlobal = *init, true
	}
	go func() {
		defer close(mergerDone)
		pending := make(map[int]chunkOut, window)
		nextMerge := c0
		for out := range results {
			pending[out.c] = out
			for {
				o, ok := pending[nextMerge]
				if !ok {
					break
				}
				delete(pending, nextMerge)
				<-tokens // chunk retired: let the feeder dispatch another
				if firstErr == nil {
					switch {
					case o.err != nil:
						// Ascending-order scan: the first error seen here is
						// the lowest-index failing trial's.
						firstErr = o.err
					case hasGlobal:
						global = r.Merge(global, o.acc)
					default:
						global, hasGlobal = o.acc, true
					}
					if firstErr == nil {
						if err := checkpointAt(nextMerge, global); err != nil {
							// A checkpoint that cannot be persisted fails the
							// run like a trial error at its boundary; stop the
							// feeder so no further chunks start.
							firstErr = err
							failed.Store(true)
						}
					}
				}
				nextMerge++
			}
		}
	}()

	cancelled := false
feed:
	for c := c0; c < cN; c++ {
		if failed.Load() {
			// Chunks are fed in ascending order, so everything that could
			// hold a lower-index error is already in flight.
			break
		}
		select {
		case tokens <- struct{}{}:
		case <-ctx.Done():
			cancelled = true
			break feed
		}
		select {
		case next <- c:
		case <-ctx.Done():
			cancelled = true
			// Unwind the token the undispatched chunk held so the merger's
			// token accounting stays balanced.
			<-tokens
			break feed
		}
	}
	close(next)
	wg.Wait()
	close(results)
	<-mergerDone
	if cancelled || ctx.Err() != nil {
		return zero, ctx.Err()
	}
	if firstErr != nil {
		return zero, firstErr
	}
	return global, nil
}

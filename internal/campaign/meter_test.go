package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// recordingMeter counts meter events and checks start/done pairing.
type recordingMeter struct {
	mu        sync.Mutex
	workers   int
	trials    int
	starts    map[int]int // chunk -> start count
	dones     map[int]int // chunk -> done count
	folded    int
	open      int // starts minus dones, live
	maxOpen   int
	startSeen bool
}

func newRecordingMeter() *recordingMeter {
	return &recordingMeter{starts: map[int]int{}, dones: map[int]int{}}
}

func (m *recordingMeter) ReduceStart(workers, trials int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.startSeen = true
	m.workers = workers
	m.trials = trials
}

func (m *recordingMeter) ChunkStart(chunk int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.starts[chunk]++
	m.open++
	if m.open > m.maxOpen {
		m.maxOpen = m.open
	}
}

func (m *recordingMeter) ChunkDone(chunk, trials int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dones[chunk]++
	m.folded += trials
	m.open--
}

// meterTrial is an order-sensitive reduction: fold order differences
// change the bits, so identical results prove the meter observed
// without interfering.
func meterTrial(i int) (float64, error) { return float64(i) * 1.000000001, nil }

var meterReducer = Reducer[float64, float64]{
	Fold:  func(acc float64, _ int, v float64) float64 { return acc*1.0000001 + v },
	Merge: func(into, next float64) float64 { return into*1.0000003 + next },
}

// TestMeterObservesReduce checks the meter's accounting: one
// ReduceStart with the resolved pool size, one start and one done per
// chunk, every trial counted, and no chunk left open.
func TestMeterObservesReduce(t *testing.T) {
	const n, chunk = 1000, 64
	m := newRecordingMeter()
	e := Engine{Workers: 4, Chunk: chunk, Meter: m}
	if _, err := Reduce(context.Background(), e, n, meterReducer, meterTrial); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.startSeen || m.workers != 4 || m.trials != n {
		t.Fatalf("ReduceStart saw workers=%d trials=%d (seen=%v), want 4/%d", m.workers, m.trials, m.startSeen, n)
	}
	wantChunks := (n + chunk - 1) / chunk
	if len(m.starts) != wantChunks || len(m.dones) != wantChunks {
		t.Fatalf("saw %d starts / %d dones, want %d chunks", len(m.starts), len(m.dones), wantChunks)
	}
	for c, s := range m.starts {
		if s != 1 || m.dones[c] != 1 {
			t.Fatalf("chunk %d: %d starts, %d dones; want exactly one each", c, s, m.dones[c])
		}
	}
	if m.folded != n {
		t.Fatalf("meter counted %d folded trials, want %d", m.folded, n)
	}
	if m.open != 0 {
		t.Fatalf("%d chunks still open after the run", m.open)
	}
	if m.maxOpen > 4 {
		t.Fatalf("max %d chunks in flight with 4 workers", m.maxOpen)
	}
}

// TestMeterDoesNotAffectResults pins the observation contract: an
// order-sensitive reduction lands on identical bits with and without a
// meter, at 1, 4 and 8 workers.
func TestMeterDoesNotAffectResults(t *testing.T) {
	const n, chunk = 5000, 128
	ctx := context.Background()
	ref, err := Reduce(ctx, Engine{Workers: 1, Chunk: chunk}, n, meterReducer, meterTrial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		got, err := Reduce(ctx, Engine{Workers: w, Chunk: chunk, Meter: newRecordingMeter()}, n, meterReducer, meterTrial)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("metered run at %d workers: %v, bare single-worker run: %v", w, got, ref)
		}
	}
}

// TestMeterClosesOnCancel checks every started chunk reports done even
// when the run is cancelled mid-flight.
func TestMeterClosesOnCancel(t *testing.T) {
	const n, chunk = 100000, 32
	m := newRecordingMeter()
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	_, err := Reduce(ctx, Engine{Workers: 4, Chunk: chunk, Meter: m}, n, meterReducer, func(i int) (float64, error) {
		if count.Add(1) > 500 {
			cancel()
		}
		return meterTrial(i)
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.open != 0 {
		t.Fatalf("%d chunks left open after cancellation", m.open)
	}
}

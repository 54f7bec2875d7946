package stat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrInvalidSample is returned by Quantile when the histogram holds NaN
// observations — a quantile of a poisoned sample is meaningless.
var ErrInvalidSample = errors.New("stat: histogram holds non-finite observations")

// StreamingHistogram is the mergeable, single-pass counterpart of
// Histogram: a fixed-range equal-bin histogram whose entire state is
// integer counts, so Merge is exact, associative and commutative — the
// discipline that lets per-chunk (or per-shard) histograms merged in
// stable index order reproduce the single-stream histogram bit for bit
// at any worker count. The binning
// rule matches Histogram exactly: samples in [Lo, Hi) land in
// int(bins*(x-Lo)/(Hi-Lo)) (clamped to the last bin), samples outside
// count in Under/Over, so a streamed histogram over the same range is
// bin-for-bin identical to the materialize-then-bin path it replaces.
type StreamingHistogram struct {
	lo, hi  float64
	counts  []uint64
	under   uint64
	over    uint64
	invalid uint64 // NaN pushes
	n       uint64
}

// NewStreamingHistogram creates a streaming histogram with bins equal
// bins over [lo, hi). It panics on a non-positive bin count, a
// non-finite range, or hi <= lo, matching NewHistogram's conventions.
func NewStreamingHistogram(lo, hi float64, bins int) *StreamingHistogram {
	if bins <= 0 || !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		panic("stat: invalid streaming histogram parameters")
	}
	return &StreamingHistogram{lo: lo, hi: hi, counts: make([]uint64, bins)}
}

// Push records one sample. NaN is counted as invalid and surfaces in
// Quantile; everything else is one integer increment — the warm path is
// allocation-free.
//
//mclint:hotpath
func (h *StreamingHistogram) Push(x float64) {
	h.n++
	switch {
	case math.IsNaN(x):
		h.invalid++
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int(float64(len(h.counts)) * (x - h.lo) / (h.hi - h.lo))
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// Lo and Hi return the histogram's range.
func (h *StreamingHistogram) Lo() float64 { return h.lo }
func (h *StreamingHistogram) Hi() float64 { return h.hi }

// Bins returns the number of bins.
func (h *StreamingHistogram) Bins() int { return len(h.counts) }

// Count returns the count of bin i.
func (h *StreamingHistogram) Count(i int) uint64 { return h.counts[i] }

// Under and Over return the out-of-range counts.
func (h *StreamingHistogram) Under() uint64 { return h.under }
func (h *StreamingHistogram) Over() uint64  { return h.over }

// Invalid returns the number of NaN samples pushed.
func (h *StreamingHistogram) Invalid() int { return int(h.invalid) }

// N returns the number of samples pushed (including out-of-range and
// invalid ones).
func (h *StreamingHistogram) N() int { return int(h.n) }

// BinCenter returns the midpoint of bin i.
func (h *StreamingHistogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.counts))
	return h.lo + (float64(i)+0.5)*w
}

// Reset empties the histogram in place, keeping range and bins.
func (h *StreamingHistogram) Reset() {
	clear(h.counts)
	h.under, h.over, h.invalid, h.n = 0, 0, 0, 0
}

// Merge folds other into h by exact integer addition. It panics when
// the two histograms do not share the same range and bin count — their
// bins are not comparable.
func (h *StreamingHistogram) Merge(other *StreamingHistogram) {
	if other.lo != h.lo || other.hi != h.hi || len(other.counts) != len(h.counts) {
		panic(fmt.Sprintf("stat: merging histograms of shape [%g,%g)/%d and [%g,%g)/%d",
			h.lo, h.hi, len(h.counts), other.lo, other.hi, len(other.counts)))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.invalid += other.invalid
	h.n += other.n
}

// Quantile returns the q-th quantile (0 <= q <= 1) estimated from the
// binned distribution, mirroring the materialized Quantile's type-7
// semantics with each order statistic read from its bin center — so the
// result is within half a bin width of the exact quantile when no
// samples fell outside the range. Out-of-range order statistics clamp
// to the range edges; NaN samples make the quantile meaningless and
// return ErrInvalidSample.
func (h *StreamingHistogram) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stat: quantile %g out of [0,1]", q)
	}
	if h.n == 0 {
		return 0, ErrEmpty
	}
	if h.invalid > 0 {
		return 0, fmt.Errorf("%w: %d of %d", ErrInvalidSample, h.invalid, h.n)
	}
	n := h.n
	if n == 1 {
		return h.rankValue(0), nil
	}
	pos := q * float64(n-1)
	k := uint64(pos)
	frac := pos - float64(k)
	lo := h.rankValue(k)
	if frac == 0 {
		return lo, nil
	}
	return lo*(1-frac) + h.rankValue(k+1)*frac, nil
}

// rankValue returns the representative value of the k-th smallest
// sample: its bin center, or a range edge for out-of-range samples.
func (h *StreamingHistogram) rankValue(k uint64) float64 {
	cum := h.under
	if k < cum {
		return h.lo
	}
	for i, c := range h.counts {
		cum += c
		if k < cum {
			return h.BinCenter(i)
		}
	}
	return h.hi
}

// ASCII renders the same fixed-width bar chart as Histogram.ASCII, one
// line per bin.
func (h *StreamingHistogram) ASCII(width int) string {
	if width <= 0 {
		width = 40
	}
	maxC := uint64(1)
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		bar := strings.Repeat("#", int(c*uint64(width)/maxC))
		fmt.Fprintf(&b, "%10.4g | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	return b.String()
}

// Binary encoding, a canonical sparse form:
//
//	magic "SHG1" | lo, hi float64 bits | bins uvarint | n, under,
//	over, invalid uvarint | pairs uvarint | (index delta uvarint,
//	count uvarint)*

var streamHistMagic = [4]byte{'S', 'H', 'G', '1'}

// maxStreamHistBins bounds the decoded bin count so arbitrary input
// cannot demand an absurd allocation. 1<<24 bins is far beyond any
// plotting or quantile use.
const maxStreamHistBins = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *StreamingHistogram) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, streamHistMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.lo))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.hi))
	buf = binary.AppendUvarint(buf, uint64(len(h.counts)))
	for _, v := range []uint64{h.n, h.under, h.over, h.invalid} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = appendSparse(buf, h.counts)
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Arbitrary
// bytes either decode into a fully consistent histogram or fail with a
// descriptive error — never a panic, never a silently inconsistent
// value.
func (h *StreamingHistogram) UnmarshalBinary(data []byte) error {
	r := &byteReader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return fmt.Errorf("stat: histogram decode: %w", err)
	}
	if magic != streamHistMagic {
		return errors.New("stat: histogram decode: bad magic")
	}
	loBits, err := r.uint64()
	if err != nil {
		return fmt.Errorf("stat: histogram decode: %w", err)
	}
	hiBits, err := r.uint64()
	if err != nil {
		return fmt.Errorf("stat: histogram decode: %w", err)
	}
	lo, hi := math.Float64frombits(loBits), math.Float64frombits(hiBits)
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("stat: histogram decode: bad range [%g, %g)", lo, hi)
	}
	bins, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("stat: histogram decode: %w", err)
	}
	if bins == 0 || bins > maxStreamHistBins {
		return fmt.Errorf("stat: histogram decode: %d bins out of [1, %d]", bins, maxStreamHistBins)
	}
	var hdr [4]uint64
	for i := range hdr {
		if hdr[i], err = r.uvarint(); err != nil {
			return fmt.Errorf("stat: histogram decode: %w", err)
		}
	}
	out := NewStreamingHistogram(lo, hi, int(bins))
	out.n, out.under, out.over, out.invalid = hdr[0], hdr[1], hdr[2], hdr[3]
	counts, binned, err := readSparseCounts(r, int(bins))
	if err != nil {
		return fmt.Errorf("stat: histogram decode: %w", err)
	}
	if counts != nil {
		out.counts = counts
	}
	if r.len() != 0 {
		return fmt.Errorf("stat: histogram decode: %d trailing bytes", r.len())
	}
	if total := binned + out.under + out.over + out.invalid; total != out.n {
		return fmt.Errorf("stat: histogram decode: counts sum to %d, header says %d", total, out.n)
	}
	*h = *out
	return nil
}

// appendSparse emits the non-zero (delta-coded index, count) pairs of a
// dense count array, preceded by the pair count.
func appendSparse(buf []byte, counts []uint64) []byte {
	pairs := 0
	for _, c := range counts {
		if c != 0 {
			pairs++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(pairs))
	prev := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev))
		buf = binary.AppendUvarint(buf, c)
		prev = i
	}
	return buf
}

// readSparseCounts decodes one canonical sparse (delta-coded index,
// count) pair list into a dense array of the given size — allocated
// only when pairs exist — returning the array (nil when empty) and the
// summed counts.
func readSparseCounts(r *byteReader, size int) ([]uint64, uint64, error) {
	pairs, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if pairs == 0 {
		return nil, 0, nil
	}
	if pairs > uint64(size) {
		return nil, 0, fmt.Errorf("%d pairs exceed %d buckets", pairs, size)
	}
	dst := make([]uint64, size)
	idx := -1
	var sum uint64
	for p := uint64(0); p < pairs; p++ {
		delta, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if count == 0 {
			return nil, 0, errors.New("zero count pair breaks canonical form")
		}
		step := int(delta)
		if p == 0 {
			idx = step
		} else {
			if delta == 0 {
				return nil, 0, errors.New("duplicate bucket index")
			}
			if step < 0 {
				return nil, 0, errors.New("bucket index overflow")
			}
			idx += step
		}
		if idx < 0 || idx >= size {
			return nil, 0, fmt.Errorf("bucket index %d out of %d", idx, size)
		}
		next := sum + count
		if next < sum {
			return nil, 0, errors.New("count overflow")
		}
		sum = next
		dst[idx] = count
	}
	return dst, sum, nil
}

// byteReader is a minimal bounds-checked cursor over a byte slice —
// enough for the histogram decoder without pulling in
// bytes.Reader's error paths.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) len() int { return len(r.data) - r.off }

func (r *byteReader) bytes(dst []byte) error {
	if r.len() < len(dst) {
		return errors.New("truncated")
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *byteReader) uint64() (uint64, error) {
	if r.len() < 8 {
		return 0, errors.New("truncated")
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	r.off += n
	return v, nil
}

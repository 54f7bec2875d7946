package wave

import (
	"math"
	"testing"
)

// TestRootTable: every entry is within the 9u table error the EvalGrid
// bound assumes of sin(2πk/n), the quarter-wave mirroring is exact, and
// the process-wide cache keeps at most rootTableCap tables, returning
// the shared one on a repeat request.
func TestRootTable(t *testing.T) {
	for _, n := range []int{4, 64, 8188, 8192} {
		s := rootTable(n)
		if len(s) != n {
			t.Fatalf("n=%d: table length %d", n, len(s))
		}
		for k, v := range s {
			// sin of the exactly reduced angle: k mod n/2 folds the
			// argument back under π, where the float64 angle is close.
			ref := math.Sin(2 * math.Pi * float64(k%(n/2)) / float64(n))
			if k >= n/2 {
				ref = -ref
			}
			if d := math.Abs(v - ref); d > 9*gridU {
				t.Fatalf("n=%d: S[%d] = %v, sin = %v (error %g > 9u)", n, k, v, ref, d)
			}
			if k > 0 && k < n/2 && s[n/2-k] != v {
				t.Fatalf("n=%d: S[%d] != S[%d]", n, n/2-k, k)
			}
			if k > 0 && s[n-k] != -v {
				t.Fatalf("n=%d: S[%d] != −S[%d]", n, n-k, k)
			}
		}
		if s[0] != 0 || s[n/2] != 0 || s[n/4] != 1 || s[3*n/4] != -1 {
			t.Fatalf("n=%d: quadrant points %v %v %v %v", n, s[0], s[n/4], s[n/2], s[3*n/4])
		}
		if &rootTable(n)[0] != &s[0] {
			t.Fatalf("n=%d: repeat request rebuilt the table", n)
		}
	}
	for n := 4; n <= 40; n += 4 {
		rootTable(n)
	}
	rootTables.mu.Lock()
	kept := len(rootTables.tabs)
	rootTables.mu.Unlock()
	if kept > rootTableCap {
		t.Fatalf("cache holds %d tables, cap %d", kept, rootTableCap)
	}
}

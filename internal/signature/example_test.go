package signature_test

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/signature"
)

// Fig. 5's clocked capture: the zone code of every master-clock tick
// (here two zones, split at 80 µs) feeds the transition detector, and
// dwell times come from the m-bit counter.
func ExampleCaptureCanonicalCodes() {
	T := 200e-6
	cfg := signature.DefaultCapture()
	n, err := cfg.Ticks(T)
	if err != nil {
		fmt.Println(err)
		return
	}
	codes := make([]monitor.Code, n)
	for k := range codes {
		codes[k] = 0b000100
		if float64(k)/cfg.ClockHz >= 80e-6 {
			codes[k] = 0b000101
		}
	}
	sig, err := signature.CaptureCanonicalCodes(codes, T, cfg, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, e := range sig.Entries {
		fmt.Printf("zone %06b for %.0f us\n", e.Code, e.Dur*1e6)
	}
	// Output:
	// zone 000100 for 80 us
	// zone 000101 for 120 us
}

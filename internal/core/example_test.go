package core_test

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
)

// The complete paper flow in five lines: build the reference system,
// calibrate the ±5% acceptance band, and test a +10% f0 CUT.
func ExampleSystem_Test() {
	sys := core.Default()
	decision, err := sys.CalibrateFromTolerance(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		fmt.Println(err)
		return
	}
	cut, err := sys.Shifted(0.10)
	if err != nil {
		fmt.Println(err)
		return
	}
	result, err := sys.Test(cut, decision, 0, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("pass = %v\n", result.Pass)
	// Output:
	// pass = false
}

// One point of the Fig. 8 curve: the exact NDF of a deviated CUT.
func ExampleSystem_NDFOfShift() {
	sys := core.Default()
	v, err := sys.NDFOfShift(0.10)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("NDF(+10%%) = %.4f (paper: 0.1021)\n", v)
	// Output:
	// NDF(+10%) = 0.1261 (paper: 0.1021)
}

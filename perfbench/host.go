package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Provenance records what produced a run: the toolchain, the source
// revision, the host's parallelism, the workload parameters, and a fixed
// single-thread CPU probe timed before and after the run. The probe is a
// report only: a run whose after-probe reads much slower than its
// before-probe shared the machine with a noisy neighbour.
type Provenance struct {
	GoVersion     string         `json:"go_version"`
	VCSRevision   string         `json:"vcs_revision"`
	VCSModified   string         `json:"vcs_modified"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"nproc"`
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Seconds       float64        `json:"seconds"`
	Trace         int            `json:"trace"`
	Params        map[string]any `json:"params"`
	ProbeBeforeMs float64        `json:"probe_before_ms"`
	ProbeAfterMs  float64        `json:"probe_after_ms"`
}

// buildInfo fills the toolchain and VCS fields from the binary's build
// information; a binary built outside a repository reports "none".
func (p *Provenance) buildInfo() {
	p.GoVersion = runtime.Version()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	p.NumCPU = runtime.NumCPU()
	p.VCSRevision, p.VCSModified = "none", "none"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			p.VCSRevision = s.Value
		case "vcs.modified":
			p.VCSModified = s.Value
		}
	}
}

// probeSink keeps the probe's result live so the loop is not removed.
var probeSink float64

// cpuProbe times a fixed single-thread floating-point loop, in
// milliseconds.
func cpuProbe() float64 {
	start := time.Now()
	x := 0.0
	for i := 1; i <= 4_000_000; i++ {
		x += math.Sqrt(float64(i)) * 1e-9
	}
	probeSink = x
	return float64(time.Since(start)) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc, in MiB. Where /proc is unavailable it falls back to the
// Go runtime's total mapped memory, which bounds the RSS from above.
func peakRSSMB() float64 {
	if v := procHWM(); v > 0 {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// procHWM reads VmHWM from /proc/self/status in MiB (0 if unreadable).
func procHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

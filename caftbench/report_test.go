package main

import (
	"runtime"
	"testing"
)

// TestPeakRSSIsPerWorkload runs a workload that holds 96 MB and then one
// that holds nothing, one after the other in one process as `--workload
// all` does, and checks that the second does not report the first one's
// peak.
func TestPeakRSSIsPerWorkload(t *testing.T) {
	const bigMB = 96
	holding := func(mb int) func(*options) (*report, error) {
		return func(o *options) (*report, error) {
			buf := make([]byte, mb<<20)
			for i := 0; i < len(buf); i += 4096 {
				buf[i] = 1
			}
			rep := newReport(o.workload)
			rep.set("max_rss_mb", peakRSSMB(), 1)
			runtime.KeepAlive(buf)
			return rep, nil
		}
	}
	var peaks []float64
	for _, mb := range []int{bigMB, 0} {
		rep, err := runWorkload(holding(mb), &options{})
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, rep.rows["max_rss_mb"].value)
	}
	if peaks[0]-peaks[1] < bigMB/2 {
		t.Fatalf("max_rss_mb %.1f MB after a %d MB workload, %.1f MB for it: the later workload inherited the peak",
			peaks[1], bigMB, peaks[0])
	}
}

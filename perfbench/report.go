package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/tensor"
)

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the VCS revision stamped into the benchmark binary, or
// "unknown" when it was built outside a git work tree.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// printHost stamps the report with the host and the run.
func printHost(w io.Writer, wl workload, seed int64, secs int, trace bool) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", wl.name, seed, secs, trace)
	fmt.Fprintf(w, "host: go=%s GOMAXPROCS=%d nproc=%d conv_workers=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), tensor.ConvWorkers(), cpuModel(), gitCommit())
	loop := fmt.Sprintf("closed loop, %d clients", clients)
	if wl.openLoop {
		loop = fmt.Sprintf("open loop, mean %.2f arrival events/s, %d connections", 1/burstPeriod.Seconds(), clients)
	}
	fmt.Fprintf(w, "workload: %s; %d rows per request; server flags %q\n", loop, wl.rows, wl.serverFlags())
}

// printE2E reports the end-to-end phase with the samples behind each number.
func printE2E(w io.Writer, e *e2eResult) {
	fmt.Fprintf(w, "end-to-end: %d requests attempted, %d failed, %d checked 200s in %.2fs\n",
		e.attempted, e.failed, len(e.ok), e.wall.Seconds())
	fmt.Fprintf(w, "setup: %d spawns, seconds %s\n", len(e.setups), fmtFloats(seconds(e.setups)))
	n := len(e.ok)
	_, beyond50 := quantile(sortedCopy(e.ok), 0.5)
	_, beyond90 := quantile(sortedCopy(e.ok), 0.9)
	fmt.Fprintf(w, "latency: p50 over n=%d (%d beyond), p90 over n=%d (%d beyond)\n", n, beyond50, n, beyond90)
	if beyond90 < minTail {
		fmt.Fprintf(w, "warning: p90 has fewer than %d samples beyond it\n", minTail)
	}
	t := pickTail(e.ok)
	if t.OK {
		fmt.Fprintf(w, "highest supported percentile: p%g = %.4fs (n=%d, %d beyond)\n", 100*t.Q, t.Value, t.N, t.Beyond)
	}
	fmt.Fprintf(w, "error_ratio: %.4f (%d of %d)\n", ratio(float64(e.failed), float64(e.attempted)), e.failed, e.attempted)
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printMetrics prints every emitted metric by name and unit.
func printMetrics(w io.Writer, specs []metricSpec, ms map[string]metricValue) {
	for _, s := range specs {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", s.Name, ms[s.Name].Value, s.Unit)
	}
	if _, ok := ms["cnn.tiny-vgg16.pool_gbps"]; ok {
		fmt.Fprintln(w, "note: cnn.* FLOPs come from Layer.FLOPs and pool bytes from tensor sizes; neither is a hardware counter")
	}
}

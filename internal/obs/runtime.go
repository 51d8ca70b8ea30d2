package obs

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"
)

// RuntimeInfo describes the host a measurement ran on — the provenance
// block every BENCH artifact carries. Cores is the physical CPU count;
// GOMAXPROCS is what the scheduler was actually allowed to use, which
// matters because the two diverge in the multicore sweeps.
type RuntimeInfo struct {
	CPU        string `json:"cpu,omitempty"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// Runtime captures the current host. The CPU model comes from
// /proc/cpuinfo and is empty on platforms without it.
func Runtime() RuntimeInfo {
	return RuntimeInfo{
		CPU:        cpuModel(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// GCSnapshot is a point-in-time view of the collector, as
// /debug/runtime serves it.
type GCSnapshot struct {
	NumGC        uint32        `json:"num_gc"`
	PauseTotal   time.Duration `json:"pause_total_ns"`
	HeapAllocMB  float64       `json:"heap_alloc_mb"`
	TotalAllocMB float64       `json:"total_alloc_mb"`
}

// ReadGC captures the collector's counters now.
func ReadGC() GCSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return GCSnapshot{
		NumGC:        ms.NumGC,
		PauseTotal:   time.Duration(ms.PauseTotalNs),
		HeapAllocMB:  float64(ms.HeapAlloc) / 1e6,
		TotalAllocMB: float64(ms.TotalAlloc) / 1e6,
	}
}

// RuntimeHandler serves the host + GC snapshot as JSON — the
// machine-readable twin of /debug/pprof for harnesses that want the
// provenance block without shelling into the process.
func RuntimeHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Runtime RuntimeInfo `json:"runtime"`
			GC      GCSnapshot  `json:"gc"`
		}{Runtime(), ReadGC()})
	})
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the host block printed before every result. A run is valid
// only when the scheduler has no more threads than the cores it may use:
// a speed-up measured with GOMAXPROCS above the usable cores is a host
// artifact, not a property of the code.
type hostInfo struct {
	NumCPU int `json:"num_cpu"`
	// CgroupCPUQuota is the cgroup CPU limit in cores (0 = no limit).
	CgroupCPUQuota float64 `json:"cgroup_cpu_quota"`
	UsableCores    int     `json:"usable_cores"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
	// Commit is the VCS revision when the build saw one, otherwise a
	// digest of the checkout's Go sources ("src:" prefix).
	Commit string `json:"commit"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the run; Discarded counts measurement windows left
	// out of the timing metrics because their own steal share exceeded
	// maxSteal.
	StealPct  float64 `json:"steal_pct"`
	Discarded int     `json:"discarded_windows"`
	Valid     bool    `json:"valid"`
	Reason    string  `json:"reason,omitempty"`
}

// maxSteal is the largest share of CPU time the hypervisor may steal
// during a measurement window before the window counts as measuring the
// host's other guests rather than the code: on the 2-core development
// host, serving phases with 7-12% steal read p99 latencies 50-100% above
// phases with under 2%.
const maxSteal = 0.05

// cpuTimes is a /proc/stat sample of the steal and total CPU time.
type cpuTimes struct{ steal, total float64 }

// readCPUTimes samples /proc/stat; without it every share reads 0.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the CPU time between t and later that was
// stolen.
func (t cpuTimes) stealShare(later cpuTimes) float64 {
	if later.total <= t.total {
		return 0
	}
	return (later.steal - t.steal) / (later.total - t.total)
}

// probeHost describes the machine. The benchmark sets GOMAXPROCS to the
// usable cores itself; only a GOMAXPROCS environment value above them
// makes the run invalid.
func probeHost() hostInfo {
	h := hostInfo{
		NumCPU:         runtime.NumCPU(),
		CgroupCPUQuota: cgroupQuota(),
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		Commit:         commit(),
		Valid:          true,
	}
	h.UsableCores = h.NumCPU
	if q := int(math.Ceil(h.CgroupCPUQuota)); q > 0 && q < h.UsableCores {
		h.UsableCores = q
	}
	h.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > h.UsableCores {
			h.Valid = false
			h.Reason = "GOMAXPROCS=" + env + " exceeds the " + strconv.Itoa(h.UsableCores) + " usable cores"
		}
	}
	return h
}

// cgroupQuota reads the CPU limit of cgroup v2 (cpu.max) or v1
// (cpu.cfs_quota_us / cpu.cfs_period_us), in cores.
func cgroupQuota() float64 {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(b))
		if len(f) == 2 && f[0] != "max" {
			return ratio(f[0], f[1])
		}
		return 0
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 != nil || err2 != nil {
		return 0
	}
	return ratio(strings.TrimSpace(string(q)), strings.TrimSpace(string(p)))
}

func ratio(quota, period string) float64 {
	q, err1 := strconv.ParseFloat(quota, 64)
	p, err2 := strconv.ParseFloat(period, 64)
	if err1 != nil || err2 != nil || q <= 0 || p <= 0 {
		return 0
	}
	return q / p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test. A checkout without VCS metadata is
// identified by a digest over its Go sources and module files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the Go
// runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(v)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

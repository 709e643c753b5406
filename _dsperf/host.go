package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts identifies the machine and tree a result was measured on.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

// collectHost reads the host facts. root is the module root whose
// source files identify the tree under test.
func collectHost(root string) hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadAvg:    loadAvg(),
		Commit:     "unknown",
		TreeSHA256: treeDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "-dirty"
			}
		}
	}
	return h
}

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

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(b))
	if len(fields) > 3 {
		fields = fields[:3]
	}
	return strings.Join(fields, " ")
}

// treeDigest hashes go.mod and every .go file under root (hidden and
// underscore directories skipped, as the go tool skips them), so a
// result names the source it measured even where no git metadata
// exists.
func treeDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
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
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rtSample is one reading of the runtime counters the benchmark uses.
type rtSample struct {
	allocBytes uint64  // /gc/heap/allocs:bytes, cumulative
	gcCycles   uint64  // /gc/cycles/total:gc-cycles
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	busyCPU    float64 // /cpu/classes/total minus /cpu/classes/idle, cpu-seconds
	procCPU    time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the runtime counters and the process CPU time
// (user plus system, from getrusage).
func readRuntime() rtSample {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s rtSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[2].Value.Float64()
	}
	// The total class is GOMAXPROCS times wall time; without the idle
	// share it is the CPU time the process used.
	if samples[3].Value.Kind() == metrics.KindFloat64 && samples[4].Value.Kind() == metrics.KindFloat64 {
		s.busyCPU = samples[3].Value.Float64() - samples[4].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// sub returns the counter growth from b to s.
func (s rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes: s.allocBytes - b.allocBytes,
		gcCycles:   s.gcCycles - b.gcCycles,
		gcCPU:      s.gcCPU - b.gcCPU,
		busyCPU:    s.busyCPU - b.busyCPU,
		procCPU:    s.procCPU - b.procCPU,
	}
}

func (s *rtSample) add(d rtSample) {
	s.allocBytes += d.allocBytes
	s.gcCycles += d.gcCycles
	s.gcCPU += d.gcCPU
	s.busyCPU += d.busyCPU
	s.procCPU += d.procCPU
}

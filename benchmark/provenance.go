package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// prov is the provenance block printed with every report: enough to tell
// two runs' hosts, inputs and daemon command lines apart.
type prov struct {
	Commit        string   `json:"commit"`
	Go            string   `json:"go"`
	NProc         int      `json:"nproc"`
	GeneratorCPUs int      `json:"gomaxprocs_generator"`
	DaemonCPUs    string   `json:"gomaxprocs_daemons"`
	CPU           string   `json:"cpu"`
	L2            string   `json:"l2"`
	L3            string   `json:"l3"`
	Seed          uint64   `json:"seed"`
	Graph         string   `json:"graph"`
	Vertices      int      `json:"vertices"`
	Edges         int64    `json:"edges"`
	FileBytes     int64    `json:"file_bytes"`
	GenS          float64  `json:"gen_s"`
	BuildS        float64  `json:"build_s"`
	Attempted     int      `json:"attempted"`
	Succeeded     int      `json:"succeeded"`
	Failed        int      `json:"failed"`
	Daemons       []string `json:"daemons,omitempty"`
}

func provenance(e *env, in *inputs, win *window) prov {
	p := prov{
		Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(),
		GeneratorCPUs: runtime.GOMAXPROCS(0), DaemonCPUs: "inherited: " + envOr("GOMAXPROCS", "unset (all cores)"),
		CPU: cpuModel(), L2: cacheSize(2), L3: cacheSize(3), Seed: e.seed,
		Graph: in.kind, Vertices: in.vertices, Edges: in.edges, FileBytes: in.fileBytes,
		GenS: in.genS, BuildS: e.buildS,
		Attempted: win.attempted, Succeeded: len(win.ops), Failed: win.failed, Daemons: e.cmdlines,
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reports cpu0's cache of the given level from sysfs.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		if strings.TrimSpace(string(lv)) == string(rune('0'+level)) {
			size, _ := os.ReadFile(filepath.Join(d, "size"))
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo identifies the machine and code a result set was measured on.
// Result sets from different hosts are not comparable; compareResults
// flags such a comparison.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is the git commit when the checkout is a repository, and
	// SourceDigest a digest of every Go source and go.mod file under the
	// root, which identifies the code either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	// StealShare is the share of vCPU time the hypervisor took during the
	// run (-1 when unknown). It makes contended runs visible; no run is
	// dropped for it.
	StealShare float64 `json:"steal_share"`
}

func currentHost(root, commit string, steal float64) hostInfo {
	return hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		Commit:       commit,
		SourceDigest: sourceDigest(root),
		StealShare:   steal,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	if root == "" {
		return "none"
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error { //nolint:errcheck — unreadable entries are left out
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if r, err := os.Open(f); err == nil {
			io.Copy(h, r) //nolint:errcheck — a short read changes the digest, which is all it must do
			r.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameHost reports whether two result sets were measured on comparable
// hosts, and if not, which fields differ.
func sameHost(a, b hostInfo) (bool, []string) {
	var diff []string
	if a.NumCPU != b.NumCPU {
		diff = append(diff, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diff = append(diff, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diff = append(diff, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.CPUModel != b.CPUModel {
		diff = append(diff, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.OS != b.OS || a.Arch != b.Arch {
		diff = append(diff, fmt.Sprintf("platform %s/%s vs %s/%s", a.OS, a.Arch, b.OS, b.Arch))
	}
	return len(diff) == 0, diff
}

// resultSet is what one run records under the work directory: the host
// block, the workload and seed, and the printed result.
type resultSet struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Result   result   `json:"result"`
}

func writeResultSet(path string, rs resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareResults prints each shared metric of two result sets with the
// relative change. It returns an error when the hosts differ, so a
// cross-host comparison can never pass silently.
func compareResults(w io.Writer, basePath, newPath string) error {
	base, err := readResultSet(basePath)
	if err != nil {
		return err
	}
	cur, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for n := range base.Result.Metrics {
		if _, ok := cur.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := base.Result.Metrics[n], cur.Result.Metrics[n]
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (b.Value-a.Value)/a.Value*100)
		}
		fmt.Fprintf(w, "%-32s %14.4f %14.4f %8s  %s\n", n, a.Value, b.Value, change, a.Unit)
	}
	if base.Workload != cur.Workload {
		fmt.Fprintf(w, "WARNING: workloads differ: %s vs %s\n", base.Workload, cur.Workload)
	}
	fmt.Fprintf(w, "host steal share %.3f vs %.3f\n", base.Host.StealShare, cur.Host.StealShare)
	if ok, diff := sameHost(base.Host, cur.Host); !ok {
		fmt.Fprintf(w, "HOST MISMATCH: %s\n", strings.Join(diff, "; "))
		return fmt.Errorf("result sets come from different hosts (%s); their numbers are not comparable", strings.Join(diff, "; "))
	}
	return nil
}

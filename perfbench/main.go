// Command perfbench is quantumjoin's benchmark. Each run generates one
// workload from its seed and measures it in one of two ways:
//
//   - untraced (-trace 0): fresh qjoind processes built from this checkout
//     are launched, warmed up and driven over loopback HTTP by at most
//     nproc clients; the run prints the end-to-end metrics.
//   - traced (-trace 1): the same item sequence is replayed in-process
//     through the program's public layer functions, each call timed by a
//     span this benchmark records; the run prints the per-layer metrics.
//
// The last line of standard output is the result object; the line before
// it records the environment. Any failed output check exits non-zero
// without a result. Run it through perfbench/run.sh, which builds both
// binaries first.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// nproc bounds the benchmark's own parallelism: load-generating
// connections and off-clock DP workers.
var nproc = runtime.NumCPU()

// Seeds recorded for comparisons: baselines are measured on
// baselineSeed; a claimed gain must also hold on the held-out confirmSeed.
const (
	baselineSeed = 1
	confirmSeed  = 7919
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", baselineSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	bin := flag.String("qjoind", "", "qjoind binary built from this checkout")
	root := flag.String("root", ".", "checkout root (for the source digest)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -seconds >= 1, -trace 0|1, and -qjoind for untraced runs")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *bin, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool, bin, root string) error {
	w, err := build(name, seed, seconds)
	if err != nil {
		return err
	}
	env := environment(root, name, seed, seconds, traced)
	ctx := context.Background()
	var rr *runResult
	if traced {
		rr, err = runTrace(ctx, w, seconds, filepath.Join(root, ".bench_build", "trace"))
	} else {
		rr, err = runE2E(ctx, bin, w, seconds)
	}
	if err != nil {
		return err
	}
	// Every output check has passed by now: a failed one returns an error
	// and the run prints no result.
	res := result{Correct: true, Attempted: rr.attempted, Failed: rr.failed, Metrics: rr.metrics}
	for k, v := range rr.record {
		env[k] = v
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": env}); err != nil {
		return err
	}
	return out.Encode(res)
}

// environment records what a result depends on besides the code.
func environment(root, name string, seed int64, seconds int, traced bool) map[string]any {
	env := map[string]any{
		"workload":       name,
		"seed":           seed,
		"baseline_seed":  baselineSeed,
		"confirm_seed":   confirmSeed,
		"seconds":        seconds,
		"traced":         traced,
		"go_version":     runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"gomaxprocs_env": os.Getenv("GOMAXPROCS"),
		"source_sha256":  sourceDigest(root),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	} else {
		env["commit"] = "unknown (not a git checkout; see source_sha256)"
	}
	return env
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Command benchmark is the repository's one benchmark: four closed-loop
// workloads over the five-layer stack, five end-to-end metrics with
// regression bounds, and a traced run that measures each layer from
// outside. See README.md beside this file.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload mulchain   one untraced run; the last line is its result
//	go run ./benchmark -workload mulchain -trace 1
//	go run ./benchmark -aa                  the end-to-end set twice, differences beside bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	defaultSeed    = 11
	defaultSeconds = 20 // BENCHMARK.json's run_seconds
)

func main() {
	name := flag.String("workload", "", "run this one workload in this process; empty runs them all, each in a child process")
	seed := flag.Int64("seed", defaultSeed, "workload input seed (the scheme and key seed is fixed)")
	seconds := flag.Float64("seconds", defaultSeconds, "how long a run's timed rounds last")
	trace := flag.Int("trace", 0, "1 records spans and probes the layers, and reports the per-layer metrics")
	aa := flag.Bool("aa", false, "run the end-to-end set twice and compare the two against the bounds")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for the server binary and the traces")
	serverBin := flag.String("server-bin", "", "a built cmd/fheserver; empty builds it into -out")
	flag.Parse()

	if err := realMain(*name, *seed, *seconds, *trace != 0, *aa, *outDir, *serverBin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace, aa bool, outDir, serverBin string) error {
	if serverBin == "" && (name == "" || name == "serve_mix" && !trace) {
		var err error
		if serverBin, err = buildServer(outDir); err != nil {
			return err
		}
	}
	if name != "" {
		info, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := run(runConfig{info: info, sh: fullShape, seed: seed, seconds: seconds, trace: trace,
			serverBin: serverBin, probes: fullProbes, outDir: outDir, log: os.Stdout})
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
		}
		return nil
	}

	child := func(workload string, trace int) (result, error) {
		return runChild(workload, seed, seconds, trace, outDir, serverBin)
	}
	if aa {
		return runAA(child)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(w.name, trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildServer builds cmd/fheserver, the program serve_mix tests, into
// dir. It is built before any clock starts.
func buildServer(dir string) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "fheserver"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fheserver").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/fheserver: %v: %s", err, out)
	}
	return bin, nil
}

// runChild runs one workload in a fresh process of this program, passes
// its output through, and returns the result on its last line.
func runChild(workload string, seed int64, seconds float64, trace int, outDir, serverBin string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-out", outDir, "-server-bin", serverBin)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return res, nil
}

// runAA runs the end-to-end set twice back to back and prints, for every
// metric and workload, how much worse the second run reads than the
// first beside the metric's bound. Any excess is an error.
func runAA(child func(string, int) (result, error)) error {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			res, err := child(w.name, 0)
			if err != nil {
				return err
			}
			sets[i][w.name] = res
		}
	}
	fmt.Printf("%-12s %-16s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	exceeded := 0
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			a, b := sets[0][w.name].Metrics[d.name].Value, sets[1][w.name].Metrics[d.name].Value
			worse := worseBy(d, a, b)
			mark := ""
			if worse > d.bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", w.name, d.name, a, b, worse*100, d.bound*100, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric x workload pairs differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

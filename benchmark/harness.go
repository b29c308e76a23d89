package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	info      workloadInfo
	sh        shape
	seed      int64
	seconds   float64 // how long the timed rounds run
	trace     bool
	serverBin string
	ops       int // ops per client per round; 0 takes the workload's own
	probes    probeTimer
	outDir    string // where the traced run writes its spans; empty writes none
	log       io.Writer
}

const (
	// Set-up is repeated at least minSetups times and until setupBudget is
	// spent, so that a short set-up is sampled often enough for a steady
	// median.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
	// A run times at least minRounds rounds however short -seconds is.
	minRounds = 3
)

// benchProcs is the GOMAXPROCS every benchmark process runs at.
func benchProcs() int { return min(2, runtime.NumCPU()) }

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// round is what one timed round measured.
type round struct {
	ops    int
	wallS  float64
	cpuS   float64
	latMS  []float64 // one per op that returned no error
	errors []string  // one per op that returned an error
}

// runRound runs every client's ops for one round. The wall and CPU clocks
// start after the inputs exist and stop before anything is verified.
func runRound(w workload, tr *tracer, name string, opBase int) (round, error) {
	clients, n := w.clients(), w.opsPerRound()
	lat := make([][]float64, clients)
	errs := make([][]string, clients)
	cpu0, err := cpuSeconds(w.workerPID())
	if err != nil {
		return round{}, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op := opBase + c*n + i
				t0 := time.Now()
				root := tr.begin(-1, op, "op", name)
				err := w.op(opCtx{tr: tr, op: op, parent: root}, c, i)
				tr.end(root)
				if err != nil {
					errs[c] = append(errs[c], fmt.Sprintf("client %d op %d: %v", c, i, err))
					continue
				}
				lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1, err := cpuSeconds(w.workerPID())
	if err != nil {
		return round{}, err
	}
	r := round{ops: clients * n, wallS: wall.Seconds(), cpuS: cpu1 - cpu0}
	for c := range lat {
		r.latMS = append(r.latMS, lat[c]...)
		r.errors = append(r.errors, errs[c]...)
	}
	return r, nil
}

// tally counts ops and failures over a run and keeps the first failure.
type tally struct {
	attempted, failed int
	wrong             int // of failed, the ops that returned a wrong result
	first             string
}

func (t *tally) fail(msgs ...string) {
	t.failed += len(msgs)
	if t.first == "" && len(msgs) > 0 {
		t.first = msgs[0]
	}
}

func (t *tally) add(r round, wrong []string) {
	t.attempted += r.ops
	t.wrong += len(wrong)
	t.fail(r.errors...)
	t.fail(wrong...)
}

// run measures one workload and returns the result line's content.
func run(cfg runConfig) (result, error) {
	runtime.GOMAXPROCS(benchProcs())
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	opt := options{ops: cfg.ops, serverBin: cfg.serverBin, tr: tr}
	m := metricSet{}
	if cfg.trace {
		opt.serverBin = "" // traced, the handler runs in this process
		// The probes go first, while the process has done nothing else:
		// they are microbenchmarks, and a workload's heap disturbs them
		// more than their garbage disturbs the workload.
		if err := runProbes(cfg.sh, cfg.probes, m); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
		runtime.GC()
	}

	// The first set-up is the one the rounds run on, so that the process's
	// peak memory is that of one set-up and its rounds.
	setUp := func() (workload, float64, error) {
		resetPlanCaches()
		w := cfg.info.make(cfg.sh, opt)
		start := time.Now()
		err := w.setup(cfg.seed)
		return w, time.Since(start).Seconds(), err
	}
	w, first, err := setUp()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{first}
	// Closing twice is harmless; this one covers the error returns.
	defer func() { _ = w.close() }()

	rng := rand.New(rand.NewSource(cfg.seed))
	var tl tally
	opBase := 0
	oneRound := func(tr *tracer) (round, error) {
		if err := w.newRound(rng); err != nil {
			return round{}, fmt.Errorf("inputs: %w", err)
		}
		r, err := runRound(w, tr, cfg.info.name, opBase)
		if err != nil {
			return round{}, err
		}
		opBase += r.ops
		tl.add(r, w.verify())
		return r, nil
	}

	// One untimed round warms caches, pools and connections; its ops are
	// verified and counted like any other.
	if _, err := oneRound(nil); err != nil {
		return result{}, err
	}

	// Timed rounds. The traced run alternates untraced and traced rounds,
	// so that tracing's overhead is measured within one process.
	var plain, traced []round
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for spent := time.Duration(0); spent < budget || len(plain) < minRounds; {
		r, err := oneRound(nil)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)
		spent += time.Duration(r.wallS * float64(time.Second))
		if cfg.trace {
			if r, err = oneRound(tr); err != nil {
				return result{}, err
			}
			traced = append(traced, r)
			spent += time.Duration(r.wallS * float64(time.Second))
		}
	}
	rssMB, err := peakRSSMB(w.workerPID())
	if err != nil {
		return result{}, err
	}
	if err := w.close(); err != nil {
		tl.fail(err.Error())
	}
	// The other set-ups, each from cold, are timed after the rounds; the
	// traced run reports no set-up time.
	for spent := first; !cfg.trace && len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget.Seconds()); {
		runtime.GC()
		again, d, err := setUp()
		if err == nil {
			err = again.close()
		}
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
		}
		setups = append(setups, d)
		spent += d
	}

	tier, err := kernelTier(cfg.sh)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d shape n=%d k=%d t=%d kernel_n=%d gomaxprocs %d kernel_tier %s trace %v\n",
		cfg.info.name, cfg.seed, cfg.sh.n, cfg.sh.levels, cfg.sh.t, cfg.sh.kernN, benchProcs(), tier, cfg.trace)
	fmt.Fprintf(cfg.log, "rounds %d x %d ops, %d set-ups, attempted %d, failed %d (failed_share %.4f)\n",
		len(plain), plain[0].ops, len(setups), tl.attempted, tl.failed, float64(tl.failed)/float64(tl.attempted))
	if tl.first != "" {
		fmt.Fprintf(cfg.log, "FIRST FAILURE: %s\n", tl.first)
	}
	if sw, ok := w.(*serveWorkload); ok {
		fmt.Fprintf(cfg.log, "serve: boot %.3f s, shed %d, retries %d, http_5xx %d, wrong_decryptions %d\n",
			sw.bootS, sw.shed.Load(), sw.retries.Load(), sw.http5xx.Load(), tl.wrong)
	}
	if !cfg.trace {
		endToEnd(m, cfg.log, plain, setups, rssMB)
	} else {
		if err := perLayer(m, cfg, w, tr, plain, traced, tl); err != nil {
			return result{}, err
		}
	}
	return result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// perRound is a figure of every round that completed an op.
func perRound(rounds []round, f func(round) float64) []float64 {
	var xs []float64
	for _, r := range rounds {
		if len(r.latMS) > 0 {
			xs = append(xs, f(r))
		}
	}
	return xs
}

func opP50(rounds []round) []float64 {
	return perRound(rounds, func(r round) float64 { return median(r.latMS) })
}

// pooled is every completed op's latency, over all rounds.
func pooled(rounds []round) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r.latMS...)
	}
	return all
}

// bestRound is the figure of the round that went best: the lowest where
// lower is better, the highest where higher is.
func bestRound(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	if better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// endToEnd fills the end-to-end metrics. A timing metric is the best
// round's figure, itself a median or a total over the round's 32 ops. What
// disturbs a round on a shared host only ever slows it, and for minutes at
// a time: across runs of the same code the best round repeats within a few
// percent where the median over the same rounds moved by 40 % (README.md
// has the runs). The quartiles over rounds are printed beside it. setup_s
// is the median of the set-ups.
func endToEnd(m metricSet, log io.Writer, rounds []round, setups []float64, rssMB float64) {
	put := func(name string, v float64, xs []float64) {
		q1, q2, q3 := quartiles(xs)
		m.set(name, v)
		fmt.Fprintf(log, "  %-16s %12.4f %-4s  quartiles [%.4f, %.4f, %.4f] over %d\n", name, v, metricUnits[name], q1, q2, q3, len(xs))
	}
	figures := map[string][]float64{
		"op_p50_ms":     opP50(rounds),
		"ops_per_s":     perRound(rounds, func(r round) float64 { return float64(len(r.latMS)) / r.wallS }),
		"cpu_ms_per_op": perRound(rounds, func(r round) float64 { return r.cpuS * 1e3 / float64(len(r.latMS)) }),
	}
	for _, d := range endToEndMetrics {
		if xs, ok := figures[d.name]; ok {
			put(d.name, bestRound(xs, d.better), xs)
		}
	}
	fmt.Fprintf(log, "  %-16s %.2f\n", "op_p50_ms by round", figures["op_p50_ms"])
	put("peak_rss_mb", rssMB, []float64{rssMB})
	put("setup_s", median(setups), setups)
	all := pooled(rounds)
	p := tailAtMost(len(all), 95)
	fmt.Fprintf(log, "  %-16s %12.4f ms    p%.0f of %d ops, not gated\n", "tail.op_ms", quantile(sorted(all), p), p*100, len(all))
}

// cpuSeconds is the user+system CPU time a process has used: this one
// from getrusage, another from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		return tv(ru.Utime) + tv(ru.Stime), nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name; utime and stime
	// are the 14th and 15th of the line, in clock ticks of 1/100 s.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is a process's VmHWM, 0 meaning this one.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// tracePath is where a traced run of a workload writes its spans.
func tracePath(dir, workload string) string {
	return filepath.Join(dir, "trace-"+workload+".jsonl")
}

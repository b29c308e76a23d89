// fheload drives a running fheserver with concurrent multiply /
// modswitch / decrypt traffic and writes the PR 8 robustness report:
// client-observed p50/p99 latency per op, shed and retry rates, and —
// when a fault burst is requested — the time the service took to return
// to a clean error rate after the burst.
//
// Every decrypted result is verified against the locally computed
// negacyclic product: a hardened service may refuse work (429, 503, 504,
// 422, 500) but must never return a wrong plaintext. Any mismatch fails
// the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mqxgo/internal/fhe"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
)

type stats struct {
	mu      sync.Mutex
	lat     map[string][]time.Duration
	status  map[int]uint64
	codes   map[string]uint64
	fivexxT []time.Time // timestamps of 5xx responses

	total   atomic.Uint64
	retries atomic.Uint64
	wrong   atomic.Uint64
}

func newStats() *stats {
	return &stats{lat: map[string][]time.Duration{}, status: map[int]uint64{}, codes: map[string]uint64{}}
}

func (st *stats) record(op string, status int, code string, d time.Duration) {
	st.total.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.status[status]++
	if code != "" {
		st.codes[code]++
	}
	if status >= 500 && status != http.StatusGatewayTimeout {
		st.fivexxT = append(st.fivexxT, time.Now())
	}
	if status == http.StatusOK {
		st.lat[op] = append(st.lat[op], d)
	}
}

// opLatency summarizes one op's client-observed latency.
type opLatency struct {
	Count uint64 `json:"count"`
	P50US int64  `json:"p50_us"`
	P99US int64  `json:"p99_us"`
	MaxUS int64  `json:"max_us"`
}

func summarize(lat []time.Duration) opLatency {
	if len(lat) == 0 {
		return opLatency{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) int64 {
		i := int(p * float64(len(lat)-1))
		return lat[i].Microseconds()
	}
	return opLatency{Count: uint64(len(lat)), P50US: q(0.50), P99US: q(0.99), MaxUS: lat[len(lat)-1].Microseconds()}
}

// client is one tenant's connection state.
type client struct {
	base    string
	http    *http.Client
	st      *stats
	rng     *rand.Rand
	timeout int // per-request timeout_ms sent to the server
}

// post sends one JSON request and decodes the response envelope,
// returning the HTTP status, the typed error code (if any), and the
// decoded body.
func (c *client) post(path string, body map[string]any) (int, string, map[string]any, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, "", nil, err
	}
	code := ""
	if e, ok := out["error"].(map[string]any); ok {
		code, _ = e["code"].(string)
	}
	return resp.StatusCode, code, out, nil
}

// do runs one evaluation-class request with retry + jittered exponential
// backoff on shed (429) and pool-exhaustion (503) responses — the two
// codes that mean "try again soon". Draining, deadline, guardrail, and
// internal errors are returned to the caller's mix logic.
func (c *client) do(ctx context.Context, op, path string, body map[string]any) (int, string, map[string]any) {
	backoff := 5 * time.Millisecond
	for attempt := 0; ; attempt++ {
		start := time.Now()
		status, code, out, err := c.post(path, body)
		if err != nil {
			select {
			case <-ctx.Done():
				return 0, "canceled", nil
			default:
			}
			c.st.record(op, 0, "transport", 0)
			return 0, "transport", nil
		}
		c.st.record(op, status, code, time.Since(start))
		retryable := status == http.StatusTooManyRequests ||
			(status == http.StatusServiceUnavailable && code == "pool_exhausted")
		if !retryable || attempt >= 6 || ctx.Err() != nil {
			return status, code, out
		}
		c.st.retries.Add(1)
		sleep := backoff + time.Duration(c.rng.Int63n(int64(backoff)))
		backoff *= 2
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return status, code, out
		}
	}
}

func handleOf(body map[string]any) string {
	h, _ := body["handle"].(string)
	return h
}

// run is one client's traffic loop: multiply into a reused destination
// handle (the server's steady-state in-place path), and every few
// iterations walk the result down a level, decrypt it, verify it against
// the locally computed product, and free it.
func (c *client) run(ctx context.Context, id int, msgLen int, plainMod uint64, modswitchEvery int) error {
	tenant := fmt.Sprintf("load-%d", id)
	if status, code, _, err := c.post("/v1/keygen", map[string]any{"tenant": tenant}); err != nil || status != http.StatusOK {
		return fmt.Errorf("%s keygen: status %d code %s err %v", tenant, status, code, err)
	}
	m1, m2 := make([]uint64, msgLen), make([]uint64, msgLen)
	for i := range m1 {
		m1[i] = c.rng.Uint64() % plainMod
		m2[i] = c.rng.Uint64() % plainMod
	}
	expected := fhe.NegacyclicProductModT(m1, m2, plainMod)
	status, code, enc1 := c.do(ctx, "encrypt", "/v1/encrypt", map[string]any{"tenant": tenant, "values": m1})
	if status != http.StatusOK {
		return fmt.Errorf("%s encrypt: %d %s", tenant, status, code)
	}
	status, code, enc2 := c.do(ctx, "encrypt", "/v1/encrypt", map[string]any{"tenant": tenant, "values": m2})
	if status != http.StatusOK {
		return fmt.Errorf("%s encrypt: %d %s", tenant, status, code)
	}
	h1, h2 := handleOf(enc1), handleOf(enc2)

	dst := ""
	for iter := 0; ctx.Err() == nil; iter++ {
		body := map[string]any{"tenant": tenant, "op": "mul", "args": []string{h1, h2}, "timeout_ms": c.timeout}
		if dst != "" {
			body["out"] = dst
		}
		status, _, out := c.do(ctx, "mul", "/v1/eval", body)
		if status != http.StatusOK {
			continue // shed past retries, deadline, or injected fault: counted, not fatal
		}
		dst = handleOf(out)

		if modswitchEvery > 0 && iter%modswitchEvery == modswitchEvery-1 {
			status, _, low := c.do(ctx, "modswitch", "/v1/eval",
				map[string]any{"tenant": tenant, "op": "modswitch", "args": []string{dst}, "timeout_ms": c.timeout})
			if status != http.StatusOK {
				continue
			}
			lowH := handleOf(low)
			status, _, dec := c.do(ctx, "decrypt", "/v1/decrypt", map[string]any{"tenant": tenant, "handle": lowH})
			if status == http.StatusOK {
				vals, ok := dec["values"].([]any)
				if !ok || len(vals) != len(expected) {
					c.st.wrong.Add(1)
				} else {
					for i := range vals {
						if uint64(vals[i].(float64)) != expected[i] {
							c.st.wrong.Add(1)
							break
						}
					}
				}
			}
			c.do(ctx, "free", "/v1/eval", map[string]any{"tenant": tenant, "op": "free", "args": []string{lowH}})
		}
	}
	return nil
}

// hostConfig stamps the host into the report. kernel_tier is read from a
// built 64-bit tower plan, so it is whatever ring's one tier policy
// resolved (the MQXGO_KERNEL_TIER knob clamped to the detected ceiling).
func hostConfig(cfg map[string]any) map[string]any {
	c, err := rns.NewContext(59, 1, 2)
	if err != nil {
		log.Fatalf("fheload: kernel tier probe: %v", err)
	}
	cfg["goos"] = runtime.GOOS
	cfg["goarch"] = runtime.GOARCH
	cfg["gomaxprocs"] = runtime.GOMAXPROCS(0)
	cfg["kernel_tier"] = c.Plans[0].Generic().KernelTier()
	cfg["kernel_tier_detected"] = ring.DetectKernelTier().String()
	cfg["cpu_features"] = ring.CPUFeatures()
	return cfg
}

func main() {
	base := flag.String("url", "http://127.0.0.1:8080", "fheserver base URL")
	clients := flag.Int("clients", 4, "concurrent tenants")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request timeout_ms sent to the server (0 = server default)")
	modswitchEvery := flag.Int("modswitch-every", 4, "modswitch+decrypt+free every Nth multiply (0 = never)")
	burst := flag.String("burst", "", "fault spec to arm mid-run via /v1/fault (needs a faultinject server build)")
	burstAt := flag.Duration("burst-at", 0, "when to arm the burst (default duration/3)")
	out := flag.String("out", "BENCH_PR8.json", "report path (empty to skip)")
	seed := flag.Int64("seed", 42, "message rng seed")
	flag.Parse()

	st := newStats()
	httpc := &http.Client{Timeout: 30 * time.Second}
	probe := &client{base: *base, http: httpc, st: newStats(), rng: rand.New(rand.NewSource(*seed))}
	status, _, keyInfo, err := probe.post("/v1/keygen", map[string]any{"tenant": "fheload-probe"})
	if err != nil || status != http.StatusOK {
		log.Fatalf("fheload: cannot reach %s: status %d err %v", *base, status, err)
	}
	msgLen := int(keyInfo["n"].(float64))
	plainMod := uint64(keyInfo["plain_modulus"].(float64))
	fmt.Printf("fheload: server %s n=%d t=%d levels=%v; %d clients for %s\n",
		keyInfo["backend"], msgLen, plainMod, keyInfo["levels"], *clients, *duration)

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var burstArmedNS atomic.Int64
	if *burst != "" {
		at := *burstAt
		if at <= 0 {
			at = *duration / 3
		}
		go func() {
			select {
			case <-time.After(at):
			case <-ctx.Done():
				return
			}
			status, code, _, err := probe.post("/v1/fault", map[string]any{"spec": *burst})
			if err != nil || status != http.StatusOK {
				log.Fatalf("fheload: arming burst %q: status %d code %s err %v", *burst, status, code, err)
			}
			burstArmedNS.Store(time.Now().UnixNano())
			fmt.Printf("fheload: burst armed at +%s: %s\n", at, *burst)
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, *clients)
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{base: *base, http: httpc, st: st, rng: rand.New(rand.NewSource(*seed + int64(i) + 1)), timeout: *timeoutMS}
			if err := c.run(ctx, i, msgLen, plainMod, *modswitchEvery); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		log.Fatalf("fheload: %v", err)
	}

	// Recovery: time from arming the burst to the last 5xx the fleet saw.
	// The tail window (final 20% of the run) must be 5xx-free: the fault
	// window spends itself and the service returns to a clean error rate.
	st.mu.Lock()
	recoveryMS := int64(-1)
	var tail5xx uint64
	burstArmed := time.Time{}
	if ns := burstArmedNS.Load(); ns != 0 {
		burstArmed = time.Unix(0, ns)
	}
	tailStart := time.Now().Add(-*duration / 5)
	for _, ts := range st.fivexxT {
		if !burstArmed.IsZero() && ts.After(burstArmed) {
			if ms := ts.Sub(burstArmed).Milliseconds(); ms > recoveryMS {
				recoveryMS = ms
			}
		}
		if ts.After(tailStart) {
			tail5xx++
		}
	}
	if !burstArmed.IsZero() && recoveryMS < 0 {
		recoveryMS = 0
	}
	perOp := map[string]opLatency{}
	for op, lat := range st.lat {
		perOp[op] = summarize(lat)
	}
	statuses := map[string]uint64{}
	for code, n := range st.status {
		statuses[fmt.Sprintf("%d", code)] = n
	}
	st.mu.Unlock()

	var snap map[string]any
	if resp, err := httpc.Get(*base + "/v1/metrics"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
	}

	report := map[string]any{
		"schema":         "mqxgo-bench/v1",
		"pr":             8,
		"generated_unix": time.Now().Unix(),
		"config": hostConfig(map[string]any{
			"clients": *clients, "duration": duration.String(), "n": msgLen,
			"plain_modulus": plainMod, "modswitch_every": *modswitchEvery,
			"burst": *burst, "timeout_ms": *timeoutMS,
		}),
		"results": map[string]any{
			"requests_total":    st.total.Load(),
			"retries":           st.retries.Load(),
			"wrong_decryptions": st.wrong.Load(),
			"status_counts":     statuses,
			"error_codes":       st.codes,
			"per_op_latency":    perOp,
			"burst_recovery_ms": recoveryMS,
			"tail_5xx":          tail5xx,
			"server_metrics":    snap,
		},
		"acceptance": map[string]any{
			"zero_wrong_decryptions": st.wrong.Load() == 0,
			"clean_tail":             tail5xx == 0,
		},
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fheload: wrote %s\n", *out)
	}
	fmt.Printf("fheload: %d requests, %d retries, shed %v, wrong %d, recovery %dms, tail 5xx %d\n",
		st.total.Load(), st.retries.Load(), st.codes["queue_full"], st.wrong.Load(), recoveryMS, tail5xx)
	if st.wrong.Load() > 0 || tail5xx > 0 {
		os.Exit(1)
	}
}

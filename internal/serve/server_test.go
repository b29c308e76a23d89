package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/fhe"
	"mqxgo/internal/rns"
)

const (
	testN = 256
	// testT is NTT-friendly at testN (40961 = 5*2^13 + 1, prime, splits
	// for 2n = 512), so the packed encode/rotate ops work on the same
	// fixture that exercises the scalar paths.
	testT = 40961
)

// newTestServer builds a server over a 3-level sequential RNS backend
// (the zero-allocation configuration) and applies cfg overrides.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	c, err := rns.NewContext(59, 3, testN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fhe.NewRNSBackendWorkers(c, testT, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheme: fhe.NewBackendScheme(b, 1001)}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func testMsg(seed int) []uint64 {
	msg := make([]uint64, testN)
	for i := range msg {
		msg[i] = uint64(seed*31+5*i+1) % testT
	}
	return msg
}

func decodeValues(t *testing.T, body map[string]any) []uint64 {
	t.Helper()
	raw, ok := body["values"].([]any)
	if !ok {
		t.Fatalf("response has no values: %v", body)
	}
	out := make([]uint64, len(raw))
	for i, v := range raw {
		out[i] = uint64(v.(float64))
	}
	return out
}

// TestServerRoundTrip drives the full tenant lifecycle over HTTP:
// keygen once, encrypt, multiply, switch a level, decrypt — and the
// decrypted product matches the schoolbook negacyclic product.
func TestServerRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := post(t, ts, "/v1/keygen", map[string]string{"tenant": "acme"}); code != http.StatusOK {
		t.Fatalf("keygen: %d", code)
	}
	// Re-registering must refuse, not rotate keys.
	if code, _ := post(t, ts, "/v1/keygen", map[string]string{"tenant": "acme"}); code != http.StatusConflict {
		t.Fatalf("re-keygen: got %d, want 409", code)
	}

	m1, m2 := testMsg(1), testMsg(2)
	want := fhe.NegacyclicProductModT(m1, m2, testT)
	code, r1 := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "acme", "values": m1})
	if code != http.StatusOK {
		t.Fatalf("encrypt 1: %d %v", code, r1)
	}
	code, r2 := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "acme", "values": m2})
	if code != http.StatusOK {
		t.Fatalf("encrypt 2: %d %v", code, r2)
	}
	h1, h2 := r1["handle"].(string), r2["handle"].(string)

	code, prod := post(t, ts, "/v1/eval", map[string]any{"tenant": "acme", "op": "mul", "args": []string{h1, h2}})
	if code != http.StatusOK {
		t.Fatalf("mul: %d %v", code, prod)
	}
	if prod["budget_bits"].(float64) <= 0 {
		t.Fatalf("mul reported no predicted budget: %v", prod)
	}
	code, low := post(t, ts, "/v1/eval", map[string]any{"tenant": "acme", "op": "modswitch", "args": []string{prod["handle"].(string)}})
	if code != http.StatusOK {
		t.Fatalf("modswitch: %d %v", code, low)
	}
	if int(low["level"].(float64)) != 1 {
		t.Fatalf("modswitch level: %v", low["level"])
	}
	code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "acme", "handle": low["handle"].(string)})
	if code != http.StatusOK {
		t.Fatalf("decrypt: %d %v", code, dec)
	}
	got := decodeValues(t, dec)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decrypted product wrong at coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
	// Measured budget at the server must beat the tracked bound's.
	if dec["budget_bits"].(float64) < low["budget_bits"].(float64) {
		t.Fatalf("measured budget %v below predicted %v: guardrail not conservative",
			dec["budget_bits"], low["budget_bits"])
	}

	// square, add, free.
	code, sq := post(t, ts, "/v1/eval", map[string]any{"tenant": "acme", "op": "square", "args": []string{h1}})
	if code != http.StatusOK {
		t.Fatalf("square: %d %v", code, sq)
	}
	code, sum := post(t, ts, "/v1/eval", map[string]any{"tenant": "acme", "op": "add", "args": []string{h1, h2}})
	if code != http.StatusOK {
		t.Fatalf("add: %d %v", code, sum)
	}
	if code, _ := post(t, ts, "/v1/eval", map[string]any{"tenant": "acme", "op": "free", "args": []string{sum["handle"].(string)}}); code != http.StatusOK {
		t.Fatalf("free: %d", code)
	}
	if code, body := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "acme", "handle": sum["handle"].(string)}); code != http.StatusNotFound || errCode(t, body) != CodeUnknownHandle {
		t.Fatalf("decrypt freed handle: %d", code)
	}

	// Unknown tenant and handle are typed 404s.
	if code, body := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "ghost", "values": m1}); code != http.StatusNotFound || errCode(t, body) != CodeUnknownTenant {
		t.Fatalf("unknown tenant: %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Completed < 7 {
		t.Fatalf("metrics completed = %d, want >= 7", snap.Completed)
	}
	if snap.PerOp["mul"].Count == 0 || snap.PerOp["mul"].P99US == 0 {
		t.Fatalf("mul latency histogram empty: %+v", snap.PerOp["mul"])
	}
}

// TestGuardrailRefusesBeforeGarbage pins the 422 path: with the floor
// raised above what a multiply can preserve, the server refuses the
// evaluation outright, and the operand is still decryptable afterwards.
func TestGuardrailRefusesBeforeGarbage(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.BudgetFloorBits = 1 << 20 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	m := testMsg(3)
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": m})
	h := enc["handle"].(string)
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "mul", "args": []string{h, h}})
	if code != http.StatusUnprocessableEntity || errCode(t, body) != CodeBudgetExhausted {
		t.Fatalf("guarded mul: got %d %v, want 422 %s", code, body, CodeBudgetExhausted)
	}
	code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": h})
	if code != http.StatusOK {
		t.Fatalf("operand no longer decryptable after refusal: %d %v", code, dec)
	}
	got := decodeValues(t, dec)
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("operand mutated by refused eval at coeff %d", i)
		}
	}
}

// TestLadderFloor pins the level_floor refusal at the bottom of the
// modulus ladder.
func TestLadderFloor(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(4)})
	h := enc["handle"].(string)
	for level := 0; level < 2; level++ {
		code, r := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "modswitch", "args": []string{h}})
		if code != http.StatusOK {
			t.Fatalf("modswitch from level %d: %d %v", level, code, r)
		}
		h = r["handle"].(string)
	}
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "modswitch", "args": []string{h}})
	if code != http.StatusUnprocessableEntity || errCode(t, body) != CodeLevelFloor {
		t.Fatalf("bottom-level modswitch: got %d %v, want 422 %s", code, body, CodeLevelFloor)
	}
}

// TestMixedLevelOperandsRefused pins that a two-operand op on handles at
// different levels is a 400 bad_request, and that an out handle at the
// first operand's level survives the refusal and still decrypts.
func TestMixedLevelOperandsRefused(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	encrypt := func(seed int) string {
		code, r := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(seed)})
		if code != http.StatusOK {
			t.Fatalf("encrypt: %d %v", code, r)
		}
		return r["handle"].(string)
	}
	modswitch := func(h string) string {
		code, r := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "modswitch", "args": []string{h}})
		if code != http.StatusOK {
			t.Fatalf("modswitch: %d %v", code, r)
		}
		return r["handle"].(string)
	}
	x0 := encrypt(1)
	x1 := modswitch(x0)
	out0 := encrypt(2)            // at x0's level
	out1 := modswitch(encrypt(3)) // at x1's level
	outs := map[string]int{out0: 2, out1: 3}

	for _, op := range []string{"add", "mul"} {
		for _, c := range []struct {
			args []string
			out  string
		}{
			{[]string{x0, x1}, ""},
			{[]string{x0, x1}, out0},
			{[]string{x1, x0}, out1},
		} {
			body := map[string]any{"tenant": "a", "op": op, "args": c.args}
			if c.out != "" {
				body["out"] = c.out
			}
			code, r := post(t, ts, "/v1/eval", body)
			if code != http.StatusBadRequest || errCode(t, r) != CodeBadRequest {
				t.Fatalf("%s %v out=%q: got %d %v, want 400 %s", op, c.args, c.out, code, r, CodeBadRequest)
			}
		}
	}
	for h, seed := range outs {
		code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": h})
		if code != http.StatusOK {
			t.Fatalf("out handle %s lost after refusal: %d %v", h, code, dec)
		}
		got, want := decodeValues(t, dec), testMsg(seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("out handle %s mutated by refused eval at coeff %d", h, i)
			}
		}
	}
}

// TestOversizedBodyRefusedWith413 pins the body cap: a /v1/encrypt body
// far past room for N values is refused with a typed 413 once decoding
// reads past the cap — not decoded in full and then refused as a
// malformed 400 — while the widest legal array, N 20-digit values, stays
// inside the cap and reaches the scheme's own validation.
func TestOversizedBodyRefusedWith413(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	widest := func(count int) []uint64 {
		v := make([]uint64, count)
		for i := range v {
			v[i] = math.MaxUint64
		}
		return v
	}
	code, body := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": widest(40 * testN)})
	if code != http.StatusRequestEntityTooLarge || errCode(t, body) != CodeBodyTooLarge {
		t.Fatalf("oversized encrypt: got %d %v, want 413 %s", code, body, CodeBodyTooLarge)
	}
	code, body = post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": widest(testN)})
	if code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("N unreduced values: got %d %v, want 400 %s from the scheme", code, body, CodeBadRequest)
	}
	if code, body := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(1)}); code != http.StatusOK {
		t.Fatalf("encrypt after a refused body: %d %v", code, body)
	}
}

// stallTenant grabs the tenant's evaluation lock so the next admitted
// request blocks inside a worker slot — a deterministic stand-in for a
// slow evaluation. Returns the unblock func.
func stallTenant(t *testing.T, s *Server, name string) func() {
	t.Helper()
	ten, apiErr := s.reg.get(name)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	ten.mu.Lock()
	return ten.mu.Unlock
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsAtCapacity saturates one worker and one queue slot,
// then asserts the next request is shed with 429 + Retry-After and a
// typed queue_full code — and that the saturated requests complete once
// the worker unblocks.
func TestAdmissionShedsAtCapacity(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.RequestTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(5)})
	h := enc["handle"].(string)

	unblock := stallTenant(t, s, "a")
	results := make(chan int, 2)
	evalBody := map[string]any{"tenant": "a", "op": "square", "args": []string{h}}
	go func() { code, _ := post(t, ts, "/v1/eval", evalBody); results <- code }()
	waitFor(t, "worker occupancy", func() bool { return len(s.workSlots) == 1 })
	go func() { code, _ := post(t, ts, "/v1/eval", evalBody); results <- code }()
	waitFor(t, "queue occupancy", func() bool { return len(s.queueSlots) == 1 })

	resp, err := ts.Client().Post(ts.URL+"/v1/eval", "application/json",
		bytes.NewReader(mustJSON(t, evalBody)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated eval: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if errCode(t, env) != CodeQueueFull {
		t.Fatalf("shed code = %q, want %s", errCode(t, env), CodeQueueFull)
	}

	unblock()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("saturated request %d finished %d after unblock, want 200", i, code)
		}
	}
	if got := s.m.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestQueuedRequestHitsDeadline pins the 504 path for a request whose
// deadline fires while it is still waiting for a worker.
func TestQueuedRequestHitsDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.RequestTimeout = 100 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(6)})
	h := enc["handle"].(string)

	unblock := stallTenant(t, s, "a")
	blocked := make(chan int, 1)
	go func() {
		code, _ := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
		blocked <- code
	}()
	waitFor(t, "worker occupancy", func() bool { return len(s.workSlots) == 1 })

	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusGatewayTimeout || errCode(t, body) != CodeDeadline {
		t.Fatalf("queued past deadline: got %d %v, want 504 %s", code, body, CodeDeadline)
	}
	// The stalled request itself also times out once it stops blocking:
	// its deadline covers the lock wait inside the evaluation, so it
	// aborts at the first context check instead of running stale work.
	unblock()
	if code := <-blocked; code != http.StatusGatewayTimeout {
		t.Fatalf("stalled request finished %d, want 504", code)
	}
}

// TestGracefulDrain walks the full shutdown contract: in-flight work
// finishes, queued work is dropped and counted, new work is refused, and
// the health endpoint flips to draining.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
		c.RequestTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(7)})
	h := enc["handle"].(string)
	evalBody := map[string]any{"tenant": "a", "op": "square", "args": []string{h}}

	unblock := stallTenant(t, s, "a")
	inFlight := make(chan int, 1)
	queued := make(chan int, 1)
	go func() { code, _ := post(t, ts, "/v1/eval", evalBody); inFlight <- code }()
	waitFor(t, "worker occupancy", func() bool { return len(s.workSlots) == 1 })
	go func() { code, _ := post(t, ts, "/v1/eval", evalBody); queued <- code }()
	waitFor(t, "queue occupancy", func() bool { return len(s.queueSlots) == 1 })

	drained := make(chan DrainReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// The queued request is dropped as soon as drain starts.
	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during drain: %d, want 503", code)
	}
	waitFor(t, "draining health", func() bool { return s.draining.Load() })
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if code, body := post(t, ts, "/v1/eval", evalBody); code != http.StatusServiceUnavailable || errCode(t, body) != CodeDraining {
		t.Fatalf("new request while draining: %d, want 503 %s", code, CodeDraining)
	}

	unblock()
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, want 200", code)
	}
	rep := <-drained
	if !rep.Clean {
		t.Fatal("drain reported unclean shutdown with all in-flight work finished")
	}
	if rep.Dropped != 1 {
		t.Fatalf("drain dropped = %d, want 1", rep.Dropped)
	}
}

// TestFaultEndpointRefusesOnProductionBuild pins the build-tag gate: a
// production binary cannot be armed.
func TestFaultEndpointRefusesOnProductionBuild(t *testing.T) {
	if faultinject.Enabled {
		t.Skip("faultinject compiled in")
	}
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := post(t, ts, "/v1/fault", map[string]any{"spec": "serve.handler:panic"})
	if code != http.StatusNotImplemented || errCode(t, body) != CodeNotCompiled {
		t.Fatalf("arming production build: got %d %v, want 501 %s", code, body, CodeNotCompiled)
	}
}

// TestConcurrentTenants is the serve-layer race hammer: many tenants
// evaluating concurrently against one shared scheme and admission queue,
// every response either a clean 200 or a typed shed/deadline.
func TestConcurrentTenants(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 64
		c.RequestTimeout = 30 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tenants = 4
	errs := make(chan error, tenants)
	for g := 0; g < tenants; g++ {
		go func(g int) {
			name := fmt.Sprintf("tenant-%d", g)
			if code, body := post(t, ts, "/v1/keygen", map[string]string{"tenant": name}); code != http.StatusOK {
				errs <- fmt.Errorf("%s keygen: %d %v", name, code, body)
				return
			}
			m := testMsg(g + 10)
			want := fhe.NegacyclicProductModT(m, m, testT)
			_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": name, "values": m})
			h, _ := enc["handle"].(string)
			if h == "" {
				errs <- fmt.Errorf("%s encrypt: %v", name, enc)
				return
			}
			for i := 0; i < 3; i++ {
				code, sq := post(t, ts, "/v1/eval", map[string]any{"tenant": name, "op": "square", "args": []string{h}})
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s square %d: %d %v", name, i, code, sq)
					return
				}
				code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": name, "handle": sq["handle"].(string)})
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s decrypt %d: %d %v", name, i, code, dec)
					return
				}
				got := decodeValues(t, dec)
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("%s: cross-tenant corruption at coeff %d", name, j)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < tenants; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mqxgo/internal/fhe"
	"mqxgo/internal/rns"
	"mqxgo/internal/scratch"
)

// testSlots builds a packed slot vector, and rotatedSlots/conjugatedSlots
// mirror the scheme's rotation semantics: two rows of n/2 slots, rotate
// moves slots LEFT within each row, conjugate swaps the rows.
func testSlots(seed int) []uint64 {
	s := make([]uint64, testN)
	for i := range s {
		s[i] = uint64(seed*131+17*i+3) % testT
	}
	return s
}

func rotatedSlots(slots []uint64, steps int) []uint64 {
	rows := len(slots) / 2
	steps = ((steps % rows) + rows) % rows
	out := make([]uint64, len(slots))
	for j := 0; j < rows; j++ {
		out[j] = slots[(j+steps)%rows]
		out[rows+j] = slots[rows+(j+steps)%rows]
	}
	return out
}

func conjugatedSlots(slots []uint64) []uint64 {
	rows := len(slots) / 2
	out := make([]uint64, len(slots))
	copy(out[:rows], slots[rows:])
	copy(out[rows:], slots[:rows])
	return out
}

// evalOK posts an eval request and fails the test on a non-200.
func evalOK(t *testing.T, ts *httptest.Server, body map[string]any) map[string]any {
	t.Helper()
	code, resp := post(t, ts, "/v1/eval", body)
	if code != http.StatusOK {
		t.Fatalf("eval %v: %d %v", body["op"], code, resp)
	}
	return resp
}

// TestServerPackedRoundTrip drives the packed SIMD workflow end-to-end
// over HTTP: encode slot vectors, encrypt, slot-wise multiply, rotate
// (multi-hop, negative, in-place) and conjugate, then decrypt + decode
// and compare against the plaintext slot model.
func TestServerPackedRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "pack"})

	slots1, slots2 := testSlots(1), testSlots(2)
	enc1 := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "encode", "values": slots1})
	enc2 := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "encode", "values": slots2})
	_, r1 := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "pack", "values": decodeValues(t, enc1)})
	_, r2 := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "pack", "values": decodeValues(t, enc2)})
	h1, h2 := r1["handle"].(string), r2["handle"].(string)

	// Slot-wise product: the plaintext CRT turns the negacyclic product
	// into a pointwise one.
	prodSlots := make([]uint64, testN)
	for i := range prodSlots {
		prodSlots[i] = slots1[i] * slots2[i] % testT
	}
	prod := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "mul", "args": []string{h1, h2}})
	hp := prod["handle"].(string)

	const steps = 3 // two key-switch hops
	rot := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "rotate", "args": []string{hp}, "steps": steps})
	if rot["noise_bits"].(float64) <= prod["noise_bits"].(float64) {
		t.Fatalf("rotate did not grow the tracked noise bound: %v -> %v", prod["noise_bits"], rot["noise_bits"])
	}
	checkSlots := func(handle string, want []uint64, what string) {
		t.Helper()
		code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "pack", "handle": handle})
		if code != http.StatusOK {
			t.Fatalf("decrypt %s: %d %v", what, code, dec)
		}
		decoded := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "decode", "values": decodeValues(t, dec)})
		got := decodeValues(t, decoded)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s wrong at slot %d: got %d want %d", what, i, got[i], want[i])
			}
		}
	}
	checkSlots(rot["handle"].(string), rotatedSlots(prodSlots, steps), "rotated product")

	// Negative steps normalize mod the row length.
	neg := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "rotate", "args": []string{h1}, "steps": -2})
	checkSlots(neg["handle"].(string), rotatedSlots(slots1, testN/2-2), "negative rotation")

	conj := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "conjugate", "args": []string{h1}})
	checkSlots(conj["handle"].(string), conjugatedSlots(slots1), "conjugate")

	// In-place: rotate h2 into the existing negative-rotation handle.
	dst := neg["handle"].(string)
	inp := evalOK(t, ts, map[string]any{"tenant": "pack", "op": "rotate", "args": []string{h2}, "steps": 5, "out": dst})
	if inp["handle"].(string) != dst {
		t.Fatalf("in-place rotate returned handle %v, want %s", inp["handle"], dst)
	}
	checkSlots(dst, rotatedSlots(slots2, 5), "in-place rotation")
}

// TestServeRotateEncodeErrors pins the typed error paths of the new ops:
// arity, unknown handles, guardrail refusal, and the sticky encoder
// validation on a server whose plaintext modulus cannot pack.
func TestServeRotateEncodeErrors(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})

	if code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "rotate", "args": []string{"x", "y"}}); code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("rotate arity: got %d %v", code, body)
	}
	if code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "rotate", "args": []string{"ct-404"}, "steps": 1}); code != http.StatusNotFound || errCode(t, body) != CodeUnknownHandle {
		t.Fatalf("rotate unknown handle: got %d %v", code, body)
	}
	if code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "encode", "values": []uint64{1, 2, 3}}); code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("encode wrong length: got %d %v", code, body)
	}

	// Guardrail refusal: with an unreachable floor, a rotation is refused
	// before it runs, and the operand survives.
	floored := newTestServer(t, func(c *Config) { c.BudgetFloorBits = 1 << 20 })
	fts := httptest.NewServer(floored.Handler())
	defer fts.Close()
	post(t, fts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, fts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(8)})
	h := enc["handle"].(string)
	if code, body := post(t, fts, "/v1/eval", map[string]any{"tenant": "a", "op": "rotate", "args": []string{h}, "steps": 1}); code != http.StatusUnprocessableEntity || errCode(t, body) != CodeBudgetExhausted {
		t.Fatalf("guarded rotate: got %d %v, want 422 %s", code, body, CodeBudgetExhausted)
	}
	if code, _ := post(t, fts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": h}); code != http.StatusOK {
		t.Fatalf("operand not decryptable after refused rotate: %d", code)
	}

	// A server over a non-NTT-friendly T serves scalar ops but reports
	// the encoder's sticky validation error on encode/decode — while
	// rotate, which is plain ring arithmetic mod Q, still works.
	c, err := rns.NewContext(59, 3, testN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fhe.NewRNSBackendWorkers(c, 257, 1) // 257 does not split at 2n=512
	if err != nil {
		t.Fatal(err)
	}
	unpacked := New(Config{Scheme: fhe.NewBackendScheme(b, 1002)})
	uts := httptest.NewServer(unpacked.Handler())
	defer uts.Close()
	post(t, uts, "/v1/keygen", map[string]string{"tenant": "a"})
	vals := make([]uint64, testN)
	if code, body := post(t, uts, "/v1/eval", map[string]any{"tenant": "a", "op": "encode", "values": vals}); code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("unpackable encode: got %d %v", code, body)
	}
	_, enc = post(t, uts, "/v1/encrypt", map[string]any{"tenant": "a", "values": vals})
	if code, r := post(t, uts, "/v1/eval", map[string]any{"tenant": "a", "op": "rotate", "args": []string{enc["handle"].(string)}, "steps": 1}); code != http.StatusOK {
		t.Fatalf("rotate at unpackable T: %d %v", code, r)
	}
}

// TestServeRotateEncodeSteadyStateAllocs extends the serving layer's
// zero-allocation bar to the packed ops: an in-place rotation and
// conjugation through the scheme and the in-place encode/decode slot
// transforms allocate nothing once warm.
func TestServeRotateEncodeSteadyStateAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s := newTestServer(t, nil)
	ten, apiErr := s.reg.create("alloc", s.cfg.Scheme)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	src, apiErr := s.applyEncrypt(ten, testMsg(22))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	ctx := context.Background()
	rotReq := evalRequest{Tenant: "alloc", Op: "rotate", Args: []string{src.Handle}, Steps: 3}
	dst, apiErr := s.applyEval(ctx, ten, rotReq) // creates the destination handle
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	rotReq.Out = dst.Handle
	if _, apiErr := s.applyEval(ctx, ten, rotReq); apiErr != nil { // warm the in-place path
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, rotReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve rotate allocates %.1f per run, want 0", got)
	}
	conjReq := evalRequest{Tenant: "alloc", Op: "conjugate", Args: []string{src.Handle}, Out: dst.Handle}
	if _, apiErr := s.applyEval(ctx, ten, conjReq); apiErr != nil {
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, conjReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve conjugate allocates %.1f per run, want 0", got)
	}

	encReq := evalRequest{Tenant: "alloc", Op: "encode", Values: testSlots(23)}
	if _, apiErr := s.applyEval(ctx, ten, encReq); apiErr != nil { // warm the encoder scratch
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, encReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve encode allocates %.1f per run, want 0", got)
	}
	decReq := evalRequest{Tenant: "alloc", Op: "decode", Values: encReq.Values}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, decReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve decode allocates %.1f per run, want 0", got)
	}
}

// TestMetricsCountEveryOp drives one successful request of every
// evaluation-class op and requires each label the handlers observe to
// show up in /v1/metrics with a non-zero count: a label missing from the
// histogram key set is dropped silently, which is how the packed ops'
// latencies went unrecorded.
func TestMetricsCountEveryOp(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "m"})

	eval := func(op string, extra map[string]any) map[string]any {
		body := map[string]any{"tenant": "m", "op": op}
		for k, v := range extra {
			body[k] = v
		}
		return evalOK(t, ts, body)
	}
	enc := eval("encode", map[string]any{"values": testSlots(4)})
	code, ct := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "m", "values": decodeValues(t, enc)})
	if code != http.StatusOK {
		t.Fatalf("encrypt: %d %v", code, ct)
	}
	h := ct["handle"].(string)
	eval("mul", map[string]any{"args": []string{h, h}})
	eval("square", map[string]any{"args": []string{h}})
	eval("add", map[string]any{"args": []string{h, h}})
	eval("modswitch", map[string]any{"args": []string{h}})
	eval("rotate", map[string]any{"args": []string{h}, "steps": 1})
	eval("conjugate", map[string]any{"args": []string{h}})
	code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "m", "handle": h})
	if code != http.StatusOK {
		t.Fatalf("decrypt: %d %v", code, dec)
	}
	eval("decode", map[string]any{"values": decodeValues(t, dec)})
	eval("free", map[string]any{"args": []string{h}})

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, op := range observedOps {
		if snap.PerOp[op].Count == 0 {
			t.Errorf("op %q completed but /v1/metrics counts none: %+v", op, snap.PerOp[op])
		}
	}
	if want := uint64(len(observedOps)); snap.Completed != want {
		t.Errorf("completed = %d, want %d: a driven op was not observed", snap.Completed, want)
	}
}

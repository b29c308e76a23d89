package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/fhe"
)

// faultServer boots a server with the fault endpoint live, skipping the
// test on production builds.
func faultServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	if !faultinject.Enabled {
		t.Skip("requires -tags faultinject")
	}
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, mutate)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// arm arms a fault spec through the admin endpoint, the same path the
// load driver uses.
func arm(t *testing.T, ts *httptest.Server, spec string) {
	t.Helper()
	if code, body := post(t, ts, "/v1/fault", map[string]any{"spec": spec}); code != http.StatusOK {
		t.Fatalf("arming %q: %d %v", spec, code, body)
	}
}

// TestInjectedBackendPanicIsContained forces a panic inside the BEHZ
// tensor phase and asserts the full containment story: the request gets
// a typed 500, the pooled scratch the panic unwound through is
// quarantined rather than recycled, and the very next multiply on the
// same backend produces a correct product from a fresh frame.
func TestInjectedBackendPanicIsContained(t *testing.T) {
	s, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	m := testMsg(30)
	want := fhe.NegacyclicProductModT(m, m, testT)
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": m})
	h := enc["handle"].(string)

	quarantinedBefore := fhe.QuarantinedScratch()
	arm(t, ts, "fhe.mul.tensor:panic:count=1")
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusInternalServerError || errCode(t, body) != CodeInternal {
		t.Fatalf("panicking eval: got %d %v, want 500 %s", code, body, CodeInternal)
	}
	if got := fhe.QuarantinedScratch(); got != quarantinedBefore+1 {
		t.Fatalf("quarantine count went %d -> %d, want +1", quarantinedBefore, got)
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// Recovery: the fault window is spent, so the next request must be a
	// clean 200 with a correct product.
	code, sq := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusOK {
		t.Fatalf("post-panic eval: %d %v", code, sq)
	}
	code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": sq["handle"].(string)})
	if code != http.StatusOK {
		t.Fatalf("post-panic decrypt: %d %v", code, dec)
	}
	got := decodeValues(t, dec)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-panic product wrong at coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestInjectedHandlerPanicIsContained does the same for a panic at the
// top of the request handler, outside the backend.
func TestInjectedHandlerPanicIsContained(t *testing.T) {
	s, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(31)})
	h := enc["handle"].(string)
	arm(t, ts, "serve.handler:panic:count=1")
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusInternalServerError {
		t.Fatalf("handler panic: got %d %v, want 500", code, body)
	}
	if code, _ := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}}); code != http.StatusOK {
		t.Fatalf("post-panic eval: %d", code)
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// TestBitFlipNeverDecryptsWrong corrupts a stored ciphertext with an
// injected bit-flip and asserts the integrity check withholds the
// plaintext with a typed corrupt error — the service never returns a
// wrong decryption, it refuses.
func TestBitFlipNeverDecryptsWrong(t *testing.T) {
	_, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	m := testMsg(32)
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": m})
	h := enc["handle"].(string)

	// Flip a high bit in every tower residue of the stored operand the
	// next time the decode seam touches it. The decrypt request's own
	// body decode consumes the first probe at this site, so the window
	// opens after one hit and covers the two component flips.
	arm(t, ts, "serve.decode:bitflip:after=1:count=2:mask=1000000000")
	code, body := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": h})
	if code != http.StatusInternalServerError || errCode(t, body) != CodeCorrupt {
		t.Fatalf("corrupted decrypt: got %d %v, want 500 %s", code, body, CodeCorrupt)
	}
	if _, hasValues := body["values"]; hasValues {
		t.Fatal("corrupt decrypt leaked plaintext values")
	}

	// A clean ciphertext still round-trips: corruption was contained to
	// the flipped handle.
	_, enc2 := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": m})
	code, dec := post(t, ts, "/v1/decrypt", map[string]any{"tenant": "a", "handle": enc2["handle"].(string)})
	if code != http.StatusOK {
		t.Fatalf("clean decrypt after corruption: %d %v", code, dec)
	}
	got := decodeValues(t, dec)
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("clean handle decrypted wrong at coeff %d", i)
		}
	}
}

// TestInPlaceEvalRefusesCorruptOperand corrupts an operand's stored
// residues past every tower prime (bit 62 of each component's first
// residue) and sends each evaluation op twice: once into a fresh result
// and once into a reused out handle. Both must be refused with the same
// typed error: the in-place path validates its operands exactly like the
// fresh one, and never answers 200 with a result computed from unreduced
// residues.
func TestInPlaceEvalRefusesCorruptOperand(t *testing.T) {
	_, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	seed := 50
	encrypt := func(count int) []string {
		t.Helper()
		var hs []string
		for i := 0; i < count; i++ {
			seed++
			code, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(seed)})
			if code != http.StatusOK {
				t.Fatalf("encrypt: %d %v", code, enc)
			}
			hs = append(hs, enc["handle"].(string))
		}
		return hs
	}
	eval := func(op string, args []string, out string) (int, map[string]any) {
		t.Helper()
		body := map[string]any{"tenant": "a", "op": op, "args": args, "steps": 1}
		if out != "" {
			body["out"] = out
		}
		return post(t, ts, "/v1/eval", body)
	}
	for _, tc := range []struct {
		op    string
		nargs int
	}{{"square", 1}, {"mul", 2}, {"add", 2}, {"modswitch", 1}, {"rotate", 1}, {"conjugate", 1}} {
		// run sends op on fresh operands, the first one corrupted: the eval
		// request's own body decode takes the first probe at this site, and
		// the flip then hits both of the operand's components.
		run := func(inPlace bool) (int, map[string]any) {
			t.Helper()
			out := ""
			if inPlace {
				code, r := eval(tc.op, encrypt(tc.nargs), "")
				if code != http.StatusOK {
					t.Fatalf("%s: building the out handle: %d %v", tc.op, code, r)
				}
				out = r["handle"].(string)
			}
			args := encrypt(tc.nargs)
			arm(t, ts, "serve.decode:bitflip:after=1:count=2:mask=4000000000000000")
			return eval(tc.op, args, out)
		}
		freshCode, freshBody := run(false)
		if freshCode == http.StatusOK {
			t.Fatalf("%s: fresh eval on a corrupt operand answered 200 %v", tc.op, freshBody)
		}
		code, body := run(true)
		if code == http.StatusOK {
			t.Fatalf("%s: in-place eval on a corrupt operand answered 200 %v", tc.op, body)
		}
		if code != freshCode || errCode(t, body) != errCode(t, freshBody) {
			t.Fatalf("%s: in-place eval got %d %v, fresh eval %d %v", tc.op, code, body, freshCode, freshBody)
		}
	}
}

// TestInjectedLatencyTripsDeadline arms a handler latency fault larger
// than the request timeout and asserts the request surfaces the typed
// 504 instead of hanging.
func TestInjectedLatencyTripsDeadline(t *testing.T) {
	_, ts := faultServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(33)})
	h := enc["handle"].(string)
	arm(t, ts, "serve.handler:latency:count=1:delay=200ms")
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusGatewayTimeout || errCode(t, body) != CodeDeadline {
		t.Fatalf("slow eval: got %d %v, want 504 %s", code, body, CodeDeadline)
	}
	if code, _ := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}}); code != http.StatusOK {
		t.Fatalf("post-latency eval: %d", code)
	}
}

// TestInjectedPoolExhaustion arms the admission pool seam and asserts
// the typed 503, then immediate recovery.
func TestInjectedPoolExhaustion(t *testing.T) {
	_, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	_, enc := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(34)})
	h := enc["handle"].(string)
	arm(t, ts, "serve.pool:exhaust:count=1")
	code, body := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})
	if code != http.StatusServiceUnavailable || errCode(t, body) != CodePoolExhausted {
		t.Fatalf("exhausted pool: got %d %v, want 503 %s", code, body, CodePoolExhausted)
	}
	if code, _ := post(t, ts, "/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}}); code != http.StatusOK {
		t.Fatalf("post-exhaustion eval: %d", code)
	}
}

// TestInjectedDecodeError arms an error fault at the decode seam.
func TestInjectedDecodeError(t *testing.T) {
	_, ts := faultServer(t, nil)
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	arm(t, ts, "serve.decode:error:count=1")
	code, body := post(t, ts, "/v1/encrypt", map[string]any{"tenant": "a", "values": testMsg(35)})
	if code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
		t.Fatalf("injected decode error: got %d %v, want 400", code, body)
	}
}

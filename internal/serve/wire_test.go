package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mqxgo/internal/scratch"
)

// mirrorRequest is evalRequest with a plain []uint64 values field: the
// decode encoding/json does by reflection, which the values scanner must
// reproduce.
type mirrorRequest struct {
	Tenant    string   `json:"tenant"`
	Op        string   `json:"op"`
	Args      []string `json:"args"`
	Out       string   `json:"out,omitempty"`
	Steps     int      `json:"steps,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
	Values    []uint64 `json:"values,omitempty"`
	Handle    string   `json:"handle,omitempty"`
}

// checkDecodeMatches decodes body with the server's decoder (through rb,
// whose pooled arrays carry whatever earlier bodies left) and with
// json.Unmarshal into mirrorRequest, and requires both to accept or both
// to refuse, and equal requests when they accept.
func checkDecodeMatches(t *testing.T, rb *reqBuf, body []byte) (apiErr *apiError, mirrorErr error) {
	t.Helper()
	apiErr = rb.decodeEval(httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
	var want mirrorRequest
	mirrorErr = json.Unmarshal(body, &want)
	if (apiErr == nil) != (mirrorErr == nil) {
		t.Fatalf("body %q: server decode error %v, encoding/json error %v", body, apiErr, mirrorErr)
	}
	if apiErr != nil {
		if apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Fatalf("body %q: refused with %d %s, want 400 %s", body, apiErr.Status, apiErr.Code, CodeBadRequest)
		}
		return apiErr, mirrorErr
	}
	r := rb.req
	got := mirrorRequest{Tenant: r.Tenant, Op: r.Op, Args: r.Args, Out: r.Out, Steps: r.Steps,
		TimeoutMS: r.TimeoutMS, Values: r.Values, Handle: r.Handle}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: server decoded %#v, encoding/json %#v", body, got, want)
	}
	return nil, nil
}

// decodeSeeds are wire bodies at the edges of the values scanner.
var decodeSeeds = []string{
	`{"tenant":"a","op":"encode","values":[0,1,2,40960,18446744073709551615]}`,
	`{"tenant":"a","op":"mul","args":["ct-1","ct-2"],"out":"ct-3","timeout_ms":50}`,
	`{"tenant":"a","op":"rotate","args":["ct-1"],"steps":-3}`,
	`{"tenant":"a","handle":"ct-9"}`,
	`{"values":null}`,
	`{"values":[]}`,
	`{"values":[ ]}`,
	`{"values":[1.0]}`,
	`{"values":[1e3]}`,
	`{"values":[1E3]}`,
	`{"values":[-1]}`,
	`{"values":[-0]}`,
	`{"values":[18446744073709551616]}`,
	`{"values":[99999999999999999999]}`,
	`{"values":[01]}`,
	`{"values":[00]}`,
	` { "values" : [ 1 ,	2 ,` + "\n\r" + `3 ] } `,
	`{"Values":[1]}`,
	`{"VALUES":[2,3]}`,
	`{"values":[1,2,3],"values":[4]}`,
	`{"values":[1,2,3],"values":[4],"values":[5,null,null,null]}`,
	`{"values":[7,8],"values":null}`,
	`{"values":[7,8],"values":[]}`,
	`{"values":[1,null]}`,
	`{"values":[null]}`,
	`{"values":[[1]]}`,
	`{"values":["1"]}`,
	`{"values":[true]}`,
	`{"values":{}}`,
	`{"values":1}`,
	`{"values":"x"}`,
	`{"steps":"x","values":[-1]}`,
	`{"tenant":"a","extra":{"values":[-1]},"values":[5]}`,
	`{"tenant":"a"} {"tenant":"b"}`,
	`{"tenant":"a","values":[1]}x`,
	`{"tenant":"a"}` + "\n",
	``,
	`null`,
	`[1,2]`,
	`{"values":[1,2`,
}

func FuzzDecodeEvalRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	rb := new(reqBuf)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatches(t, rb, body)
	})
}

// TestDecodeEvalRequestMatchesEncodingJSON runs every seed through one
// pooled reqBuf, each after a long array left stale values behind it, and
// checks that a refused body whose only fault is in its values gets the
// error message encoding/json gives the plain []uint64 field.
func TestDecodeEvalRequestMatchesEncodingJSON(t *testing.T) {
	rb := new(reqBuf)
	long := `{"values":[` + strings.Repeat("12345,", 99) + `6]}`
	for _, s := range decodeSeeds {
		checkDecodeMatches(t, rb, []byte(long))
		checkDecodeMatches(t, rb, []byte(s))
	}
	for _, s := range []string{`{"values":[-1]}`, `{"values":[1.5]}`, `{"values":[18446744073709551616]}`, `{"values":["1"]}`, `{"values":[[1]]}`, `{"values":{}}`} {
		apiErr, mirrorErr := checkDecodeMatches(t, rb, []byte(s))
		got := strings.TrimPrefix(apiErr.Message, "decode: ")
		want := strings.ReplaceAll(mirrorErr.Error(), "mirrorRequest", "evalRequest")
		if got != want {
			t.Errorf("body %s: error %q, encoding/json %q", s, got, want)
		}
	}
}

// TestEvalResponsePrinterMatchesEncoder prints random responses with
// appendEvalResponse and with json.Encoder, byte for byte, including
// handles that need escaping: quotes, backslashes, HTML characters,
// control bytes, non-ASCII, U+2028 and invalid UTF-8.
func TestEvalResponsePrinterMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	handles := []string{"", "ct-1", "ct-184467", `a"b`, `a\b`, "<script>", "a&b", "x>y",
		"tab\there", "nl\n", "\x00\x1f", "é", "漢字", "a\u2028b\u2029", "\xff\xfe", "ct-\x7f"}
	var b []byte
	for i := 0; i < 400; i++ {
		resp := evalResponse{
			Handle:     handles[rng.Intn(len(handles))],
			Level:      rng.Intn(5),
			NoiseBits:  rng.Intn(200) - 20,
			BudgetBits: rng.Intn(200) - 100,
		}
		switch rng.Intn(4) {
		case 0: // nil values
		case 1:
			resp.Values = []uint64{}
		default:
			resp.Values = make([]uint64, rng.Intn(40)+1)
			for j := range resp.Values {
				switch rng.Intn(3) {
				case 0:
					resp.Values[j] = rng.Uint64()
				case 1:
					resp.Values[j] = uint64(rng.Intn(10))
				default:
					resp.Values[j] = math.MaxUint64
				}
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if b = appendEvalResponse(b[:0], &resp); !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("response %#v:\nprinted  %q\nencoder  %q", resp, b, want.Bytes())
		}
	}
}

// TestEvalBodyDecodeAllocs pins the transport's decode cost: a warm decode
// of an encode body of 4,096 values, the benchmark's shape, makes at most
// 8 allocations and 2 KB — the values land in the pooled array, and the
// allocations left are encoding/json's decoder state and the strings of
// the other fields.
func TestEvalBodyDecodeAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	vals := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = uint64(rng.Intn(testT))
	}
	body, err := json.Marshal(mirrorRequest{Tenant: "bench-0", Op: "encode", Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/eval", nil)
	r.Body = io.NopCloser(br)
	rb := new(reqBuf)
	decode := func() {
		br.Reset(body)
		if apiErr := rb.decodeEval(r); apiErr != nil {
			t.Fatal(apiErr)
		}
	}
	decode() // warm rb
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	allocs := (m1.Mallocs - m0.Mallocs) / runs
	bytesPer := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("warm decode of %d values: %d allocs, %d B", len(vals), allocs, bytesPer)
	if allocs > 8 || bytesPer > 2048 {
		t.Errorf("warm decode of %d values: %d allocs and %d B per run, want at most 8 and 2048", len(vals), allocs, bytesPer)
	}
	if !reflect.DeepEqual([]uint64(rb.req.Values), vals) {
		t.Error("decoded values differ from the body's")
	}
}

// postRaw sends body as is and decodes the JSON response.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
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

// TestTrailingBodyBytesRefused: a body is one JSON value. Bytes after it
// — a second object, or stray characters — are a 400 bad_request on every
// endpoint that reads a body, where they were once ignored; trailing
// whitespace is still part of a valid body, and a body past the cap is
// still a 413 body_too_large.
func TestTrailingBodyBytesRefused(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body := postRaw(t, ts, "/v1/keygen", `{"tenant":"a"}`+"\n\t "); code != http.StatusOK {
		t.Fatalf("keygen with trailing whitespace: %d %v", code, body)
	}
	msg, _ := json.Marshal(testMsg(1))
	for _, c := range []struct{ path, body string }{
		{"/v1/keygen", `{"tenant":"b"} {"tenant":"c"}`},
		{"/v1/encrypt", `{"tenant":"a","values":` + string(msg) + `} {"tenant":"b"}`},
		{"/v1/encrypt", `{"tenant":"a","values":` + string(msg) + `}x`},
		{"/v1/eval", `{"tenant":"a","op":"encode","values":` + string(msg) + `}]`},
		{"/v1/decrypt", `{"tenant":"a","handle":"ct-1"}{}`},
		{"/v1/fault", `{"reset":true} 1`},
	} {
		code, body := postRaw(t, ts, c.path, c.body)
		if code != http.StatusBadRequest || errCode(t, body) != CodeBadRequest {
			t.Errorf("%s %.40q...: got %d %v, want 400 %s", c.path, c.body, code, body, CodeBadRequest)
		}
	}
	if code, body := postRaw(t, ts, "/v1/encrypt", `{"tenant":"a","values":`+string(msg)+`}`+"\n"); code != http.StatusOK {
		t.Fatalf("encrypt with a trailing newline: %d %v", code, body)
	}
	big := `{"tenant":"a","values":[` + strings.Repeat("18446744073709551615,", 40*testN) + `0]}`
	if code, body := postRaw(t, ts, "/v1/encrypt", big); code != http.StatusRequestEntityTooLarge || errCode(t, body) != CodeBodyTooLarge {
		t.Fatalf("oversized encrypt: got %d %v, want 413 %s", code, body, CodeBodyTooLarge)
	}
	if code, body := postRaw(t, ts, "/v1/keygen", `{"tenant":"`+strings.Repeat("x", 40*testN*21)+`"}`); code != http.StatusRequestEntityTooLarge || errCode(t, body) != CodeBodyTooLarge {
		t.Fatalf("oversized keygen: got %d %v, want 413 %s", code, body, CodeBodyTooLarge)
	}
}

// TestTransportMetricsCountRequests: /v1/metrics reports the transport's
// decode_body and encode_body summaries, and each counts one observation
// per evaluation-class request served (keygen and metrics reads are not
// evaluation-class).
func TestTransportMetricsCountRequests(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts, "/v1/keygen", map[string]string{"tenant": "a"})
	served := 0
	serve := func(path string, body any) map[string]any {
		t.Helper()
		code, resp := post(t, ts, path, body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", path, code, resp)
		}
		served++
		return resp
	}
	enc := serve("/v1/eval", map[string]any{"tenant": "a", "op": "encode", "values": testMsg(2)})
	h := serve("/v1/encrypt", map[string]any{"tenant": "a", "values": decodeValues(t, enc)})["handle"].(string)
	sq := serve("/v1/eval", map[string]any{"tenant": "a", "op": "square", "args": []string{h}})["handle"].(string)
	serve("/v1/decrypt", map[string]any{"tenant": "a", "handle": sq})
	serve("/v1/eval", map[string]any{"tenant": "a", "op": "free", "args": []string{h}})

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"decode_body", "encode_body"} {
		lat, ok := snap.Transport[name]
		if !ok {
			t.Fatalf("metrics snapshot has no transport.%s: %+v", name, snap.Transport)
		}
		if lat.Count != uint64(served) {
			t.Errorf("transport.%s count %d, want the %d evaluation-class requests served", name, lat.Count, served)
		}
	}
	if snap.Completed != uint64(served) {
		t.Errorf("completed %d, want %d", snap.Completed, served)
	}
	if got := testing.AllocsPerRun(10, func() { s.m.decodeBody.observe(1500) }); got != 0 {
		t.Errorf("a transport observation allocates %.1f per run, want 0", got)
	}
}

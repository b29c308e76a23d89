package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// serveWorkload is serve_mix: two clients, a tenant each, driving the
// service over loopback HTTP in sessions of 15 requests. Untraced, the
// server is the built cmd/fheserver binary in its own process; traced (and
// in the smoke test) it is serve's handler mounted in this process behind
// timedHandler, so that a request's client and handler spans share a
// clock.
type serveWorkload struct {
	sh        shape
	ops       int
	serverBin string
	tr        *tracer

	proc    *serverProc      // subprocess server
	local   *httptest.Server // in-process server
	drain   func(context.Context) bool
	base    string
	httpc   *http.Client
	tenants []string
	bootS   float64

	x   [][][]uint64 // slot inputs, by client and op
	got [][][]uint64 // decoded result slots

	shed, retries, http5xx    atomic.Int64
	encReqBytes, decRespBytes atomic.Int64
}

const (
	serveClients = 2
	// A traced request carries its client span in this header, so the
	// handler span timedHandler records belongs to the request that
	// caused it.
	spanHeader = "X-Bench-Span"
)

func (w *serveWorkload) clients() int     { return serveClients }
func (w *serveWorkload) opsPerRound() int { return w.ops }

func (w *serveWorkload) workerPID() int {
	if w.proc != nil {
		return w.proc.cmd.Process.Pid
	}
	return 0
}

func (w *serveWorkload) setup(int64) error {
	start := time.Now()
	if w.serverBin != "" {
		p, err := startServer(w.serverBin, w.sh)
		if err != nil {
			return err
		}
		w.proc, w.base = p, p.base
	} else {
		h, drain, err := newServeHandler(w.sh)
		if err != nil {
			return err
		}
		w.local, w.drain = httptest.NewServer(timedHandler(w.tr, h)), drain
		w.base = w.local.URL
	}
	w.bootS = time.Since(start).Seconds()
	w.httpc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	w.tenants = nil
	for c := 0; c < serveClients; c++ {
		t := fmt.Sprintf("bench-%d", c)
		if _, err := w.post(opCtx{}, "keygen", "/v1/keygen", apiRequest{Tenant: t}); err != nil {
			return fmt.Errorf("tenant %s: %w", t, err)
		}
		w.tenants = append(w.tenants, t)
	}
	w.x, w.got = make([][][]uint64, serveClients), make([][][]uint64, serveClients)
	for c := range w.x {
		w.x[c], w.got[c] = make([][]uint64, w.ops), make([][]uint64, w.ops)
	}
	return nil
}

func (w *serveWorkload) newRound(r *rand.Rand) error {
	for c := range w.x {
		for i := range w.x[c] {
			w.x[c][i], w.got[c][i] = randSlots(r, w.sh.n, w.sh.t), nil
		}
	}
	return nil
}

// op is one session: encode, encrypt the message twice, multiply, switch
// down, rotate by one, add, decrypt, decode, and free the six handles.
func (w *serveWorkload) op(oc opCtx, client, i int) error {
	tenant := w.tenants[client]
	eval := func(op string, steps int, args ...string) (apiResponse, error) {
		return w.post(oc, op, "/v1/eval", apiRequest{Tenant: tenant, Op: op, Args: args, Steps: steps})
	}
	enc, err := w.post(oc, "encode", "/v1/eval", apiRequest{Tenant: tenant, Op: "encode", Values: w.x[client][i]})
	if err != nil {
		return err
	}
	var handles []string
	step := func(r apiResponse, err error) (string, error) {
		if err == nil {
			handles = append(handles, r.Handle)
		}
		return r.Handle, err
	}
	h1, err := step(w.post(oc, "encrypt", "/v1/encrypt", apiRequest{Tenant: tenant, Values: enc.Values}))
	if err != nil {
		return err
	}
	h2, err := step(w.post(oc, "encrypt", "/v1/encrypt", apiRequest{Tenant: tenant, Values: enc.Values}))
	if err != nil {
		return err
	}
	prod, err := step(eval("mul", 0, h1, h2))
	if err != nil {
		return err
	}
	low, err := step(eval("modswitch", 0, prod))
	if err != nil {
		return err
	}
	rot, err := step(eval("rotate", 1, low))
	if err != nil {
		return err
	}
	sum, err := step(eval("add", 0, low, rot))
	if err != nil {
		return err
	}
	dec, err := w.post(oc, "decrypt", "/v1/decrypt", apiRequest{Tenant: tenant, Handle: sum})
	if err != nil {
		return err
	}
	slots, err := w.post(oc, "decode", "/v1/eval", apiRequest{Tenant: tenant, Op: "decode", Values: dec.Values})
	if err != nil {
		return err
	}
	for _, h := range handles {
		if _, err := eval("free", 0, h); err != nil {
			return err
		}
	}
	w.got[client][i] = slots.Values
	return nil
}

// sessionModel is the slot model of one session: slot j of a row holds
// x[j]^2 plus the square of the next slot of its row, which the rotation
// by one brings to j.
func sessionModel(x []uint64, t uint64) []uint64 {
	rows := len(x) / 2
	want := make([]uint64, len(x))
	for r := 0; r < 2; r++ {
		for j := 0; j < rows; j++ {
			a, b := x[r*rows+j], x[r*rows+(j+1)%rows]
			want[r*rows+j] = (a*a + b*b) % t
		}
	}
	return want
}

func (w *serveWorkload) verify() []string {
	var bad []string
	for c := range w.got {
		for i, got := range w.got[c] {
			if got == nil {
				continue
			}
			if d := firstDiff(fmt.Sprintf("client %d session %d", c, i), got, sessionModel(w.x[c][i], w.sh.t)); d != "" {
				bad = append(bad, d)
			}
		}
	}
	return bad
}

func (w *serveWorkload) close() error {
	if w.httpc != nil {
		w.httpc.CloseIdleConnections()
	}
	switch {
	case w.proc != nil:
		p := w.proc
		w.proc = nil
		return p.stop()
	case w.local != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		clean := w.drain(ctx)
		w.local.Close()
		w.local = nil
		if !clean {
			return errors.New("in-process server did not drain cleanly")
		}
	}
	return nil
}

// apiRequest and apiResponse are the HTTP API's JSON bodies, as
// internal/serve documents them.
type apiRequest struct {
	Tenant string   `json:"tenant"`
	Op     string   `json:"op,omitempty"`
	Args   []string `json:"args,omitempty"`
	Steps  int      `json:"steps,omitempty"`
	Values []uint64 `json:"values,omitempty"`
	Handle string   `json:"handle,omitempty"`
}

type apiResponse struct {
	Handle string   `json:"handle"`
	Values []uint64 `json:"values"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

const maxAttempts = 6

// post sends one request and returns its decoded 200 reply. A shed (429)
// or pool-exhausted (503) reply is retried with doubling back-off, as
// cmd/fheload does; anything else that is not 200, and a retry budget
// spent, is an error, which fails the op. When tracing, the whole of it is
// one client span, JSON encoding and decoding included, and names itself
// to the handler in the request's headers.
func (w *serveWorkload) post(oc opCtx, name, path string, req apiRequest) (apiResponse, error) {
	id := oc.begin("client", name)
	defer oc.end(id)
	body, err := json.Marshal(req)
	if err != nil {
		return apiResponse{}, err
	}
	if name == "encrypt" {
		w.encReqBytes.Store(int64(len(body)))
	}
	backoff := 5 * time.Millisecond
	for attempt := 1; ; attempt++ {
		hr, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(body))
		if err != nil {
			return apiResponse{}, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if id >= 0 {
			hr.Header.Set(spanHeader, strconv.Itoa(id))
		}
		hresp, err := w.httpc.Do(hr)
		if err != nil {
			return apiResponse{}, fmt.Errorf("%s: %w", name, err)
		}
		raw, err := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if err != nil {
			return apiResponse{}, fmt.Errorf("%s: %w", name, err)
		}
		status := hresp.StatusCode
		var resp apiResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return apiResponse{}, fmt.Errorf("%s: status %d: %w", name, status, err)
		}
		if status == http.StatusOK {
			if name == "decrypt" {
				w.decRespBytes.Store(int64(len(raw)))
			}
			return resp, nil
		}
		code := ""
		if resp.Error != nil {
			code = resp.Error.Code
		}
		if status >= 500 {
			w.http5xx.Add(1)
		}
		if status == http.StatusTooManyRequests {
			w.shed.Add(1)
		}
		retryable := status == http.StatusTooManyRequests || (status == http.StatusServiceUnavailable && code == "pool_exhausted")
		if !retryable || attempt == maxAttempts {
			return apiResponse{}, fmt.Errorf("%s: status %d %s after %d attempts", name, status, code, attempt)
		}
		w.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// timedHandler records a serve span around ServeHTTP for every request
// that names its client span.
func timedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(rw, r)
			return
		}
		id := tr.beginUnder(parent, "serve")
		h.ServeHTTP(rw, r)
		tr.end(id)
	})
}

// serverProc is a running cmd/fheserver.
type serverProc struct {
	cmd  *exec.Cmd
	out  bytes.Buffer
	base string
}

// startServer boots the binary with the four flags ISSUE 11 allows and
// waits until /healthz answers.
func startServer(bin string, sh shape) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &serverProc{base: "http://" + addr}
	p.cmd = exec.Command(bin, "-addr", addr, "-n", strconv.Itoa(sh.n), "-levels", strconv.Itoa(sh.levels), "-t", strconv.FormatUint(sh.t, 10))
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs()))
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
			return nil, fmt.Errorf("fheserver on %s not healthy after 20s: %s", addr, p.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to end, and requires the
// clean drain report fheserver prints.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	err := p.cmd.Wait()
	var report struct {
		Clean bool `json:"clean"`
	}
	for _, line := range strings.Split(p.out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "drain "); ok {
			_ = json.Unmarshal([]byte(rest), &report)
		}
	}
	if err != nil || !report.Clean {
		return fmt.Errorf("fheserver did not drain cleanly (%v): %s", err, p.out.String())
	}
	return nil
}

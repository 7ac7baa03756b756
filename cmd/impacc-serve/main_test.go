package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the server's stdout while realMain writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code := realMain([]string{"-max-vtime", "10parsecs"}, &out, &errOut); code != 2 {
		t.Fatalf("bad duration exit = %d, want 2", code)
	}
	errOut.Reset()
	if code := realMain([]string{"-max-events", "-1"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "max-events:") {
		t.Fatalf("negative -max-events: exit = %d, stderr %q; want 2 naming the flag", code, errOut.String())
	}
}

// TestMaxVTimeZeroUnlimited: "-max-vtime 0" parses as unlimited. The
// listen address is invalid, so realMain returns 1 from net.Listen once
// every flag has been accepted (a rejected flag exits 2).
func TestMaxVTimeZeroUnlimited(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-max-vtime", "0", "-addr", "127.0.0.1:-1"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 (listen failure); stderr: %s", code, errOut.String())
	}
	if strings.Contains(errOut.String(), "max-vtime") {
		t.Fatalf("-max-vtime 0 rejected: %s", errOut.String())
	}
}

// TestServeSmoke boots the real command on an ephemeral port, runs one job
// twice, and asserts the second submission is a cache hit with identical
// bytes — the same flow the CI serve-smoke job drives with curl.
func TestServeSmoke(t *testing.T) {
	var stdout, stderr syncBuffer
	go realMain([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stdout, &stderr)

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		if s := stdout.String(); strings.Contains(s, "listening on ") {
			addr := strings.TrimSpace(strings.SplitN(s, "listening on ", 2)[1])
			base = "http://" + addr
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	spec := `{"system":"beacon:2","app":"jacobi","n":64,"iters":2}`
	submit := func() (map[string]any, int) {
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st, resp.StatusCode
	}
	st1, code := submit()
	if code != 200 || st1["state"] != "done" {
		t.Fatalf("first submit -> %d %v", code, st1)
	}
	st2, code := submit()
	if code != 200 || st2["cached"] != true {
		t.Fatalf("second submit -> %d %v, want cache hit", code, st2)
	}

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	key := st1["key"].(string)
	a := get("/v1/jobs/" + key + "/report")
	b := get("/v1/jobs/" + key + "/report")
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatal("report fetches not byte-identical")
	}
	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, "serve_cache_hits_total 1") {
		t.Fatalf("metrics missing hit count:\n%s", metrics)
	}
}

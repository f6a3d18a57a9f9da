package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// serve starts newHTTPServer's server for h on a loopback port with its
// read timeout shortened to d, and returns the address.
func serve(t *testing.T, h http.Handler, d time.Duration) string {
	t.Helper()
	srv := newHTTPServer("", h)
	if srv.ReadTimeout != readTimeout || srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts read %v / header %v / idle %v, want %v / %v / %v",
			srv.ReadTimeout, srv.ReadHeaderTimeout, srv.IdleTimeout, readTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadTimeout = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestReadTimeoutCutsTrickledBody: a client that sends its headers and
// then trickles the body is cut off once the read timeout passes, while a
// normal create on the API listener and a one-second CPU profile on the
// debug listener still succeed under the same timeout.
func TestReadTimeoutCutsTrickledBody(t *testing.T) {
	const timeout = 2 * time.Second
	srv, _, err := server.NewServer(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	api := serve(t, srv.Handler(), timeout)

	conn, err := net.Dial("tcp", api)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // one byte every 50 ms: the body would take 200 s
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				if _, err := io.WriteString(conn, " "); err != nil {
					return
				}
			}
		}
	}()
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * timeout))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a trickled body held the connection for %v", time.Since(start))
	}
	if took := time.Since(start); took < timeout/2 {
		t.Fatalf("the connection closed after %v, before the read timeout", took)
	}

	res, err := http.Post("http://"+api+"/v1/sessions", "application/json",
		strings.NewReader(`{"dataset":"books","seed":1,"options":{"mu":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s %s", res.Status, body)
	}

	debug := serve(t, nil, timeout)
	res, err = http.Get("http://" + debug + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if n, _ := io.Copy(io.Discard, res.Body); res.StatusCode != http.StatusOK || n == 0 {
		t.Fatalf("profile: %s, %d bytes", res.Status, n)
	}
}

package obs

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDebugServerShutdownDrainsInFlight: a scrape that is mid-request
// when Shutdown begins completes with a full 200 response before
// Shutdown returns; afterwards the listener is closed.
func TestDebugServerShutdownDrainsInFlight(t *testing.T) {
	r := NewRegistry()
	r.Counter("xse_test_shutdown_total", "test counter").Add(7)
	// Shutdown closes the listener first, which resets a connection
	// still waiting in its accept queue; the test waits until the
	// server has accepted and tracks the connection (StateNew), after
	// which Shutdown waits for it.
	accepted := make(chan struct{}, 1)
	debugConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}
	d, err := ServeDebug("127.0.0.1:0", r)
	debugConnState = nil
	if err != nil {
		t.Fatal(err)
	}

	// Open a connection and send an incomplete request: the connection
	// is in flight from the server's point of view, so Shutdown must
	// wait for it.
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: "+d.Addr+"\r\n"); err != nil {
		t.Fatal(err)
	}

	<-accepted

	// Shutdown runs its OnShutdown hooks once it has closed the
	// listener, just before it waits on the connections.
	draining := make(chan struct{})
	d.srv.RegisterOnShutdown(func() { close(draining) })
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- d.Shutdown(ctx)
	}()

	// Complete the request once Shutdown is draining; the server must
	// still answer it in full.
	<-draining
	if _, err := io.WriteString(conn, "Connection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight scrape failed during shutdown: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("in-flight scrape body truncated: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight scrape status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "xse_test_shutdown_total 7") {
		t.Fatalf("scrape body missing counter:\n%s", body)
	}

	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request completed")
	}

	// The listener is gone: new connections are refused.
	if c, err := net.DialTimeout("tcp", d.Addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestDebugServerShutdownDeadline: a connection that never completes
// its request cannot hold Shutdown past its deadline.
func TestDebugServerShutdownDeadline(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request parks the connection in flight forever.
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := d.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown = nil, want deadline error for a wedged connection")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %s, want ~deadline", elapsed)
	}
}

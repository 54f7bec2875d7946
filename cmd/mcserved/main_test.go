package main

import (
	"net/http"
	"testing"
)

// The listeners bound how long a client may take to send its headers
// and how long an idle keep-alive connection lives, but never cut a
// response short: SSE progress streams stay open for a whole campaign.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer(h)
	if hs.Handler == nil {
		t.Fatal("handler not installed")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v > 0", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v > 0", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: want 0 so SSE streams and long uploads are not cut", hs.WriteTimeout, hs.ReadTimeout)
	}
}

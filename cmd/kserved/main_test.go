package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts: the daemon bounds how long a client may take to
// send a request and how long an idle connection stays open, and sets no
// write timeout, which would cut SSE event streams.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", hs.ReadHeaderTimeout, 10 * time.Second},
		{"ReadTimeout", hs.ReadTimeout, time.Minute},
		{"IdleTimeout", hs.IdleTimeout, 2 * time.Minute},
		{"WriteTimeout", hs.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmit sends arbitrary bodies to POST /jobs. The handler must not
// panic and must answer 202, 400, 429 or 503; the server then drains.
func FuzzSubmit(f *testing.F) {
	small := "region 10 4 4 1\ncell a 1 1\ncell b 2 1\nnet n a:out b:in\n"
	for _, req := range []map[string]any{
		{"netlist": small},
		{"netlist": small, "k": 1.0, "max_iter": 3, "grid_bins": 8, "net_model": "hybrid", "stop_square_factor": 2},
		{"netlist": small, "keep_placement": true, "no_linearize": true, "deadline_ms": 5},
		{"netlist": small, "net_model": "bogus"},
		{"netlist": "cell a -1 -1\n"},
		{"netlist": small, "max_iter": -1, "grid_bins": 1 << 40, "k": -3},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte("[1,2]"))
	f.Add([]byte(`{"netlist": 7}`))
	f.Add([]byte(`{"k": 1e400}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, QueueDepth: 1})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("POST /jobs answered %d: %s\nbody: %q", rec.Code, rec.Body, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("drain after %q: %v", body, err)
		}
	})
}

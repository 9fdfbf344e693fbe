package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"soemt/internal/experiments"
)

// benchRun is the README's tier=fast request.
var benchRun = RunRequest{Pair: "swim:mcf", F: 0.5, Tier: TierFast}

// BenchmarkRouteKey prices the run request's route key: cold builds the
// spec and fingerprints it (what every submission paid before the
// memo), memo is a warm RouteKey.
func BenchmarkRouteKey(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec, _, err := benchRun.buildSpec()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := experiments.Fingerprint(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		if _, err := benchRun.RouteKey(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := benchRun.RouteKey(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeFast is one tier=fast POST /v1/run through the node's
// handler (decode, route key, fast cache, JSON answer), without a
// network hop.
func BenchmarkServeFast(b *testing.B) {
	s, err := NewServer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	h := s.Handler()
	body := []byte(`{"pair":"swim:mcf","f":0.5,"tier":"fast"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

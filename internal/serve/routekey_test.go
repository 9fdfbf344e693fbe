package serve

import (
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"soemt/internal/experiments"
	"soemt/internal/workload"
)

// resetRouteKeys empties the process-wide RouteKey memo.
func resetRouteKeys() {
	routeKeys.mu.Lock()
	routeKeys.m = make(map[RunRequest]string)
	routeKeys.mu.Unlock()
}

func memoLen() int {
	routeKeys.mu.Lock()
	defer routeKeys.mu.Unlock()
	return len(routeKeys.m)
}

// builtinRequests is every built-in pair (the paper matrix plus each
// same-benchmark pair) and every bench, at the given F levels and
// every scale name, with the fingerprint of a freshly built spec.
func builtinRequests(t *testing.T) ([]RunRequest, []string) {
	t.Helper()
	var pairs []string
	seen := make(map[string]bool)
	for _, p := range experiments.Pairs() {
		pairs, seen[p.Name()] = append(pairs, p.Name()), true
	}
	for _, b := range workload.Names() {
		if !seen[b+":"+b] {
			pairs = append(pairs, b+":"+b)
		}
	}
	var reqs []RunRequest
	for _, scale := range []string{"", "tiny", "quick", "paper"} {
		for _, pair := range pairs {
			for _, f := range []float64{0, 0.25, 0.3, 0.5, 1} {
				reqs = append(reqs, RunRequest{Pair: pair, F: f, Scale: scale})
			}
		}
		for _, b := range workload.Names() {
			reqs = append(reqs, RunRequest{Bench: b, Scale: scale})
		}
	}
	want := make([]string, len(reqs))
	for i, rq := range reqs {
		spec, _, err := rq.buildSpec()
		if err != nil {
			t.Fatalf("%+v: %v", rq, err)
		}
		if want[i], err = experiments.Fingerprint(spec); err != nil {
			t.Fatalf("%+v: %v", rq, err)
		}
	}
	return reqs, want
}

func checkRouteKeys(t *testing.T, reqs []RunRequest, want []string, label string) {
	t.Helper()
	for i, rq := range reqs {
		got, err := rq.RouteKey()
		if err != nil || got != want[i] {
			t.Fatalf("%s: %+v RouteKey = %q, %v; want %q", label, rq, got, err, want[i])
		}
	}
}

// TestRouteKeyMemoMatchesFreshFingerprint: the memo never changes a
// key — cold, warm, with the fields it ignores set, under concurrency,
// and at capacity for requests it did not store.
func TestRouteKeyMemoMatchesFreshFingerprint(t *testing.T) {
	reqs, want := builtinRequests(t)
	t.Cleanup(resetRouteKeys)

	resetRouteKeys()
	checkRouteKeys(t, reqs, want, "cold")
	if n := memoLen(); n != len(reqs) {
		t.Fatalf("memo holds %d keys after %d distinct requests", n, len(reqs))
	}
	checkRouteKeys(t, reqs, want, "warm")

	// Tier and Trace do not reach the spec: a warm hit under another
	// tier or with tracing returns the same key and stores nothing new.
	varied := make([]RunRequest, len(reqs))
	for i, rq := range reqs {
		rq.Tier, rq.Trace = TierExact, i%2 == 0
		varied[i] = rq
	}
	checkRouteKeys(t, varied, want, "tier/trace")
	if n := memoLen(); n != len(reqs) {
		t.Fatalf("tier/trace variants grew the memo to %d keys, want %d", n, len(reqs))
	}

	resetRouteKeys()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g*len(reqs)/8) % len(reqs)
				if got, err := reqs[i].RouteKey(); err != nil || got != want[i] {
					errs <- reqs[i].Pair + reqs[i].Bench
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent RouteKey for %s differs from a fresh fingerprint", e)
	}

	// Fill the memo to its cap, then ask for keys it cannot store.
	resetRouteKeys()
	for i := 0; memoLen() < fastCacheCap; i++ {
		if _, err := (RunRequest{Pair: "gcc:eon", F: float64(i+1) / (4 * fastCacheCap), Scale: "tiny"}).RouteKey(); err != nil {
			t.Fatal(err)
		}
	}
	stored := make(map[RunRequest]bool)
	routeKeys.mu.Lock()
	for k := range routeKeys.m {
		stored[k] = true
	}
	routeKeys.mu.Unlock()
	var unstored []RunRequest
	var unstoredWant []string
	for i, rq := range reqs {
		if !stored[rq.specInputs()] {
			unstored = append(unstored, rq)
			unstoredWant = append(unstoredWant, want[i])
		}
	}
	if len(unstored) == 0 {
		t.Fatal("every built-in request is in the full memo; nothing exercises the capped path")
	}
	checkRouteKeys(t, unstored, unstoredWant, "at cap")
	checkRouteKeys(t, unstored, unstoredWant, "at cap, repeated")
	if n := memoLen(); n != fastCacheCap {
		t.Fatalf("memo holds %d keys, want its cap %d", n, fastCacheCap)
	}
}

// TestRunRequestRejectsNaNF: NaN fails the F range check instead of
// reaching the fingerprint encoder (which cannot encode it).
func TestRunRequestRejectsNaNF(t *testing.T) {
	rq := RunRequest{Pair: "gcc:eon", F: math.NaN()}
	if _, _, err := rq.buildSpec(); err == nil || !strings.Contains(err.Error(), "f must be in [0, 1]") {
		t.Errorf("buildSpec with F=NaN: err = %v, want the F range error", err)
	}
	if _, err := rq.RouteKey(); err == nil || !strings.Contains(err.Error(), "f must be in [0, 1]") {
		t.Errorf("RouteKey with F=NaN: err = %v, want the F range error", err)
	}
}

// goldenKeys are spec fingerprints pinned from the pre-memo code: the
// node's job keys and fast answers must not change under the memo.
var goldenKeys = []struct {
	rq RunRequest
	fp string
}{
	{RunRequest{Pair: "gcc:eon", F: 0.5, Scale: "tiny"}, "e5cb4efd8be9cdc87dde8e291e2d075892a98b1fe6eef6e01c2d39c27d3e4c80"},
	{RunRequest{Pair: "swim:mcf", F: 0.5}, "cbe914e4f69e72afe485c81e960dc97b356077d34800c182ca17c30f30d99378"},
	{RunRequest{Pair: "gcc:gcc", F: 1, Scale: "paper"}, "14ef6841758dfbfc86f1dcc7789b8de21e69f8e1fa6350d65368d662416c8c9b"},
	{RunRequest{Pair: "mcf:galgel", F: 0, Scale: "quick"}, "c4bb309fc379d6eb2b1b58e0ff4a45e43b16f3681acfa645225e51776b8027bd"},
	{RunRequest{Bench: "gcc", Scale: "paper"}, "3da836626b360d7d9c506ac04770122f14e5fbafaeb44adc93fcd10414ddda97"},
}

// TestHandleRunKeysMatchGolden: the fast answer's fingerprint field and
// the exact and traced job keys are the pinned fingerprints, on a
// memo miss and on a hit.
func TestHandleRunKeysMatchGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 2}, quickStub)
	t.Cleanup(resetRouteKeys)
	for pass, label := range []string{"cold", "warm"} {
		if pass == 0 {
			resetRouteKeys()
		}
		for _, g := range goldenKeys {
			fast := g.rq
			fast.Tier = TierFast
			code, body, _ := post(t, ts.URL+"/v1/run", fast)
			if code != http.StatusOK || body["fingerprint"] != g.fp {
				t.Fatalf("%s fast %+v: %d fingerprint %v, want %s", label, g.rq, code, body["fingerprint"], g.fp)
			}
			for _, trace := range []bool{false, true} {
				exact := g.rq
				exact.Tier, exact.Trace = TierExact, trace
				code, body, _ := post(t, ts.URL+"/v1/run", exact)
				if code != http.StatusAccepted {
					t.Fatalf("%s exact %+v: status %d (%v)", label, exact, code, body)
				}
				wantKey := g.fp
				if trace {
					wantKey += "|trace"
				}
				s.mu.Lock()
				j := s.jobs[body["id"].(string)]
				s.mu.Unlock()
				if j.key != wantKey || j.fingerprint != g.fp {
					t.Fatalf("%s exact %+v: job key %q fingerprint %q, want %q / %q", label, exact, j.key, j.fingerprint, wantKey, g.fp)
				}
			}
		}
		s.WaitIdle()
	}
}

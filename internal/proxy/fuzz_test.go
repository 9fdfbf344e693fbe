package proxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"soemt/internal/serve"
)

// recordingNode stands in for a soeserve node: it answers every request
// 200 and keeps the submissions it was sent.
type recordingNode struct {
	mu   sync.Mutex
	subs []submission
}

type submission struct {
	path string
	body []byte
}

func (n *recordingNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		n.subs = append(n.subs, submission{r.URL.Path, body})
		n.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{}\n")
}

// take returns and clears the recorded submissions.
func (n *recordingNode) take() []submission {
	n.mu.Lock()
	defer n.mu.Unlock()
	subs := n.subs
	n.subs = nil
	return subs
}

// proxySeeds are the README's curl bodies plus malformed ones; the
// flag picks /v1/sweep over /v1/run.
var proxySeeds = []struct {
	sweep bool
	body  string
}{
	{false, `{"pair":"gcc:eon","f":0.5,"scale":"tiny"}`},
	{false, `{"pair":"gcc:eon","f":0,"scale":"tiny","trace":true}`},
	{false, `{"pair":"swim:mcf","f":0.5,"scale":"tiny"}`},
	{false, `{"pair":"swim:mcf","f":0.5,"tier":"fast"}`},
	{true, `{"pairs":["gcc:eon","swim:gzip"],"scale":"tiny"}`},
	{true, `{"scale":"paper","tier":"fast"}`},
	{false, `{"pair":"gcc:eon","f":2}`},
	{false, `{"pair":"gcc:nope"}`},
	{false, `{"bench":"gcc","pair":"gcc:eon"}`},
	{true, `{"pairs":["gcc"]}`},
	{true, `{"pairs":"gcc:eon"}`},
	{false, `{"pair":"gcc:eon"`},
	{false, `null`},
	{true, ``},
}

// FuzzProxySubmit posts arbitrary bodies to the gateway's /v1/run and
// /v1/sweep, backed by one recording node. The gateway must not
// panic; a body it rejects gets 400 or 413 and never reaches the node;
// a body it forwards reaches the node unchanged, and a forwarded run
// decodes to a request with a route key.
func FuzzProxySubmit(f *testing.F) {
	for _, seed := range proxySeeds {
		f.Add(seed.sweep, []byte(seed.body))
	}
	node := &recordingNode{}
	nts := httptest.NewServer(node)
	f.Cleanup(nts.Close)
	p, _ := startProxy(f, []string{nts.URL}, nil, Config{MaxBodyBytes: 4 << 10})
	h := p.Handler()

	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		path := "/v1/run"
		if sweep {
			path = "/v1/sweep"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		subs := node.take()

		if w.Code != http.StatusOK {
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %q: status %d (%s), want 200, 400 or 413", path, body, w.Code, w.Body)
			}
			if len(subs) != 0 {
				t.Fatalf("%s %q: rejected with %d but forwarded %d time(s)", path, body, w.Code, len(subs))
			}
			return
		}
		if len(subs) != 1 || subs[0].path != path || !bytes.Equal(subs[0].body, body) {
			t.Fatalf("%s %q: answered 200 but the node saw %d submission(s) %+v, want the body once", path, body, len(subs), subs)
		}
		if sweep {
			var rq serve.SweepRequest
			if err := json.Unmarshal(subs[0].body, &rq); err != nil {
				t.Fatalf("forwarded sweep %q does not decode: %v", body, err)
			}
			if _, err := rq.RouteKey(); err != nil {
				t.Fatalf("forwarded sweep %q has no route key: %v", body, err)
			}
			return
		}
		var rq serve.RunRequest
		if err := json.Unmarshal(subs[0].body, &rq); err != nil {
			t.Fatalf("forwarded run %q does not decode: %v", body, err)
		}
		if _, err := rq.RouteKey(); err != nil {
			t.Fatalf("forwarded run %q has no route key: %v", body, err)
		}
	})
}

package proxy

import (
	"bytes"
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
	{false, `{"pair":"gcc:eon","f":0.5,"tier":"fast","x":1}`},
	{false, `{"pair":"gcc:eon","f":0.5,"tier":"fast"} {}`},
	{false, `{"pair":"gcc:eon","f":0.5,"tier":"fast"}` + "\n\t "},
	{false, `null`},
	{true, ``},
}

// FuzzProxySubmit posts arbitrary bodies to the gateway's /v1/run and
// /v1/sweep, backed by one recording node. The gateway must not
// panic; it forwards a body iff the shared request decoder accepts it
// and it has a route key; a body it rejects gets 400 or 413 and never
// reaches the node; a body it forwards reaches the node unchanged.
func FuzzProxySubmit(f *testing.F) {
	for _, seed := range proxySeeds {
		f.Add(seed.sweep, []byte(seed.body))
	}
	const maxBody = 4 << 10
	node := &recordingNode{}
	nts := httptest.NewServer(node)
	f.Cleanup(nts.Close)
	p, _ := startProxy(f, []string{nts.URL}, nil, Config{MaxBodyBytes: maxBody})
	h := p.Handler()

	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		path := "/v1/run"
		if sweep {
			path = "/v1/sweep"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		subs := node.take()

		routable := len(body) <= maxBody && routeKey(sweep, body) == nil
		if forwarded := w.Code == http.StatusOK; forwarded != routable {
			t.Fatalf("%s %q: status %d (%s), but the decoder and route key say forwardable=%v", path, body, w.Code, w.Body, routable)
		}
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
	})
}

// routeKey decodes body with the shared request decoder and derives
// its route key, the two checks a body must pass to be forwarded.
func routeKey(sweep bool, body []byte) error {
	if sweep {
		var rq serve.SweepRequest
		if err := serve.DecodeRequest(bytes.NewReader(body), &rq); err != nil {
			return err
		}
		_, err := rq.RouteKey()
		return err
	}
	var rq serve.RunRequest
	if err := serve.DecodeRequest(bytes.NewReader(body), &rq); err != nil {
		return err
	}
	_, err := rq.RouteKey()
	return err
}

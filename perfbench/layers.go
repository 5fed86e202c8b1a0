package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
)

// Spans are recorded from the benchmark's own code around each call into a
// layer: the client call (client), the wrapped server handler (server), the
// wrapped result-store Get/Put (store), Runner.Prefetch and Spec.Generate
// (exp) and trace synthesis (trace).
var spanLayers = []string{"client", "server", "store", "exp", "trace"}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps a repetition's spans in memory. A nil *tracer records
// nothing, so untraced repetitions pay only a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(parent int, layer, name, reqID string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, ReqID: reqID,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// link resolves parents the recording sites could not know: a server span
// belongs to the client span carrying the same request id, and a root-less
// store span to the server span whose interval contains it (the latest
// starting one when two concurrent handlers both do).
func (t *tracer) link() {
	client := map[string]int{}
	var handlers []int
	for i, s := range t.spans {
		switch s.Layer {
		case "client":
			client[s.ReqID] = i
		case "server":
			handlers = append(handlers, i)
		}
	}
	for _, i := range handlers {
		if p, ok := client[t.spans[i].ReqID]; ok && t.spans[i].Parent < 0 {
			t.spans[i].Parent = p
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer != "store" || s.Parent >= 0 {
			continue
		}
		best := -1
		for _, h := range handlers {
			hs := t.spans[h]
			if hs.Start <= s.Start && s.End <= hs.End && (best < 0 || hs.Start > t.spans[best].Start) {
				best = h
			}
		}
		s.Parent = best
		if best >= 0 {
			s.ReqID = t.spans[best].ReqID
		}
	}
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.link()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		self[s.Layer] += float64(d) / 1e9
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timedStore wraps the result store as the Runner's exp.Backing, timing
// every Get and Put from outside the store package.
type timedStore struct {
	st *store.Store
	tr *tracer
	s  *samples // store.get_ms / store.put_ms pools and hit counts
}

func (b *timedStore) Get(key string) (sim.Result, bool) {
	t0 := time.Now()
	res, ok := b.st.Get(key)
	t1 := time.Now()
	b.tr.record(-1, "store", "get", "", t0, t1)
	b.s.add("store.get_ms", ms(t1.Sub(t0)))
	if ok {
		b.s.add("store.hit", 1)
	}
	return res, ok
}

func (b *timedStore) Put(key string, res sim.Result) error {
	t0 := time.Now()
	err := b.st.Put(key, res)
	t1 := time.Now()
	b.tr.record(-1, "store", "put", "", t0, t1)
	b.s.add("store.put_ms", ms(t1.Sub(t0)))
	if err != nil {
		b.s.add("store.put_error", 1)
	}
	return err
}

// getFigures and putFigures turn a timedStore's pools into the store.*
// layer metrics.
func getFigures(from, to *samples) {
	gets := from.count("store.get_ms")
	to.add("store.gets", float64(gets))
	if gets > 0 {
		to.add("store.get_ms_p50", from.pct("store.get_ms", 50))
		to.add("store.get_ms_p99", from.pct("store.get_ms", 99))
		to.add("store.get_hit_ratio", float64(from.count("store.hit"))/float64(gets))
	}
}

func putFigures(from, to *samples) {
	puts := from.count("store.put_ms")
	to.add("store.puts", float64(puts))
	to.add("store.put_errors", float64(from.count("store.put_error")))
	if puts > 0 {
		to.add("store.put_ms_p50", from.pct("store.put_ms", 50))
		to.add("store.put_ms_p99", from.pct("store.put_ms", 99))
	}
}

// handlerTimer wraps the server's Handler(): it records one server span
// per request under the caller's X-Request-ID, the handler time and the
// response size per endpoint kind, and 503/504 refusals.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	s    *samples // server.<kind>_handler_ms pools, response bytes, handler ms by request id
	mu   sync.Mutex
	byID map[string]float64 // handler ms per request id, for client.overhead_ms
}

func newHandlerTimer(next http.Handler, tr *tracer, s *samples) *handlerTimer {
	return &handlerTimer{next: next, tr: tr, s: s, byID: map[string]float64{}}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := endpointKind(r)
	rid := r.Header.Get("X-Request-ID")
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	t1 := time.Now()
	h.tr.record(-1, "server", kind, rid, t0, t1)
	d := ms(t1.Sub(t0))
	h.s.add("server."+kind+"_handler_ms", d)
	h.s.add("server."+kind+"_response_bytes", float64(cw.bytes))
	if cw.status == http.StatusServiceUnavailable || cw.status == http.StatusGatewayTimeout {
		h.s.add("server.rejected", 1)
	}
	h.mu.Lock()
	h.byID[rid] = d
	h.mu.Unlock()
}

func (h *handlerTimer) handlerMS(rid string) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byID[rid]
	return d, ok
}

func endpointKind(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/sim":
		return "sim"
	case p == "/v1/batch":
		return "batch"
	case p == "/v1/traces":
		return "upload"
	case strings.HasPrefix(p, "/v1/tables/"):
		return "table"
	}
	return "other"
}

// countingWriter counts response bytes and keeps the status; it forwards
// Flush so streamed batch records still reach the client one by one.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlerFigures turns a handlerTimer's pools into server.* metrics.
func handlerFigures(from, to *samples) {
	for _, k := range []string{"sim", "batch", "table", "upload"} {
		if from.count("server."+k+"_handler_ms") > 0 {
			to.add("server."+k+"_handler_ms", from.median("server."+k+"_handler_ms"))
		}
		if k != "upload" && from.count("server."+k+"_response_bytes") > 0 {
			to.add("server."+k+"_response_bytes", from.pct("server."+k+"_response_bytes", 50))
		}
	}
	to.add("server.rejected", float64(from.count("server.rejected")))
}

type requestIDKey struct{}

// withRequestID tags ctx so the benchmark's transport sends rid as the
// request's X-Request-ID.
func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, rid)
}

// idTransport sets X-Request-ID from the request context; the server
// adopts a well-formed caller id, so client and server spans share it.
type idTransport struct{ next http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rid, ok := r.Context().Value(requestIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-ID", rid)
	}
	return t.next.RoundTrip(r)
}

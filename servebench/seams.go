package main

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"prpart/internal/cluster"
	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/store"
)

// Headers carrying a traced request's id and its parent span into the
// daemon, and from there across peer calls. The daemon ignores them.
const (
	hdrReq    = "X-Servebench-Req"
	hdrParent = "X-Servebench-Parent"
)

// tracer wraps the daemon's public seams — serve.Config.Solver,
// store.Config.FS, cluster.Config.Transport and Server.Handler() — and
// records a span around every call into them that serves a traced
// request.
type tracer struct {
	r *recorder

	mu     sync.Mutex
	puts   map[int64]*span // open store.put per goroutine
	gets   map[int64]*span // open store.get per goroutine
	solved []solvedDesign  // every traced solve's result, for replays
}

type solvedDesign struct {
	res        *core.Result
	multilevel bool
}

func newTracer() *tracer {
	return &tracer{r: newRecorder(), puts: map[int64]*span{}, gets: map[int64]*span{}}
}

// solve is the serve.Config.Solver wrapper: a core.run span under the
// handler of the request that asked for the design.
func (t *tracer) solve(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
	t.r.mu.Lock()
	req := t.r.designs[d.Name]
	parent := t.r.handlers[req]
	t.r.mu.Unlock()
	if req == 0 {
		return core.RunContext(ctx, d, opts)
	}
	g := goid()
	s := span{ID: t.r.newID(), Parent: parent, Req: req, Name: "core.run", Start: t.r.now()}
	t.r.bind(g, binding{req: req, parent: s.ID})
	res, err := core.RunContext(ctx, d, opts)
	s.End = t.r.now()
	t.r.add(s)
	// The worker goes on to persist and replicate the result for the
	// same request.
	t.r.bind(g, binding{req: req, parent: parent})
	if err == nil {
		t.mu.Lock()
		t.solved = append(t.solved, solvedDesign{res: res, multilevel: opts.Multilevel})
		t.mu.Unlock()
	}
	return res, err
}

// handler wraps Server.Handler(): a serve.handler span per traced
// client request, and a serve.peer_handler span per peer call it causes.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := span{ID: t.r.newID(), Parent: parent, Req: req, Name: "serve.handler", Start: t.r.now()}
		peer := r.URL.Path != "/v1/solve"
		if peer {
			s.Name = "serve.peer_handler"
		} else {
			t.r.mu.Lock()
			t.r.handlers[req] = s.ID
			t.r.mu.Unlock()
		}
		g := goid()
		t.r.bind(g, binding{req: req, parent: s.ID})
		tw := &tracedWriter{ResponseWriter: w, onHeader: func() { t.endGet(g) }}
		h.ServeHTTP(tw, r)
		s.End = t.r.now()
		s.Cache = tw.Header().Get("X-Cache")
		t.r.add(s)
		if peer {
			t.r.unbind(g)
		} else {
			t.r.release(req)
		}
	})
}

// tracedWriter reports the moment the handler starts its response.
type tracedWriter struct {
	http.ResponseWriter
	onHeader func()
	wrote    bool
}

func (w *tracedWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.onHeader()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tracedWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// beginPut opens a store.put span on goroutine g if it serves a traced
// request and has none open: Put's first write is either a blob temp
// file or, for a body already stored under another key, the ledger.
func (t *tracer) beginPut(g int64) {
	b, ok := t.r.lookup(g)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.puts[g] == nil {
		t.puts[g] = &span{ID: t.r.newID(), Parent: b.parent, Req: b.req, Name: "store.put", Start: t.r.now()}
	}
}

// notePut adds fsyncs and written bytes to g's open store.put; the
// ledger fsync that ends every Put closes the span.
func (t *tracer) notePut(g int64, syncs, n int64, last bool) {
	t.mu.Lock()
	s := t.puts[g]
	if s != nil {
		s.Syncs += syncs
		s.Bytes += n
		if last {
			delete(t.puts, g)
		}
	}
	t.mu.Unlock()
	if s != nil && last {
		s.End = t.r.now()
		t.r.add(*s)
	}
}

// beginGet opens a store.get span when goroutine g opens a blob for a
// traced request. It ends when the handler starts writing the response,
// so it covers the read and the SHA-256 verify after it.
func (t *tracer) beginGet(g int64) {
	b, ok := t.r.lookup(g)
	if !ok {
		return
	}
	t.mu.Lock()
	t.gets[g] = &span{ID: t.r.newID(), Parent: b.parent, Req: b.req, Name: "store.get", Start: t.r.now()}
	t.mu.Unlock()
}

func (t *tracer) noteGet(g int64, n int64) {
	t.mu.Lock()
	if s := t.gets[g]; s != nil {
		s.Bytes += n
	}
	t.mu.Unlock()
}

func (t *tracer) endGet(g int64) {
	t.mu.Lock()
	s := t.gets[g]
	delete(t.gets, g)
	t.mu.Unlock()
	if s != nil {
		s.End = t.r.now()
		t.r.add(*s)
	}
}

// tracedFS is the store.Config.FS wrapper.
type tracedFS struct {
	base store.FS
	t    *tracer
}

// Store file roles, from the store's directory layout.
func isLedger(name string) bool { return filepath.Base(name) == "ledger" }
func isBlob(name string) bool   { return strings.Contains(filepath.ToSlash(name), "/blobs/") }
func isTemp(name string) bool   { return strings.Contains(filepath.ToSlash(name), "/tmp/") }

func (f *tracedFS) MkdirAll(path string) error { return f.base.MkdirAll(path) }

func (f *tracedFS) Create(name string) (store.File, error) {
	if isTemp(name) {
		f.t.beginPut(goid())
	}
	h, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, t: f.t, ledger: isLedger(name)}, nil
}

func (f *tracedFS) Open(name string) (store.File, error) {
	if isBlob(name) {
		f.t.beginGet(goid())
	}
	h, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, t: f.t, ledger: isLedger(name)}, nil
}

func (f *tracedFS) OpenAppend(name string) (store.File, error) {
	h, err := f.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, t: f.t, ledger: isLedger(name)}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error   { return f.base.Rename(oldpath, newpath) }
func (f *tracedFS) Remove(name string) error               { return f.base.Remove(name) }
func (f *tracedFS) Truncate(name string, size int64) error { return f.base.Truncate(name, size) }
func (f *tracedFS) Stat(name string) (int64, error)        { return f.base.Stat(name) }
func (f *tracedFS) ReadDir(dir string) ([]string, error)   { return f.base.ReadDir(dir) }

// tracedFile attributes a store file's reads, writes and fsyncs to the
// open store span of the calling goroutine.
type tracedFile struct {
	store.File
	t      *tracer
	ledger bool
}

func (f *tracedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.t.noteGet(goid(), int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	g := goid()
	if f.ledger {
		f.t.beginPut(g)
	}
	n, err := f.File.Write(p)
	f.t.notePut(g, 0, int64(n), false)
	return n, err
}

func (f *tracedFile) Sync() error {
	err := f.File.Sync()
	f.t.notePut(goid(), 1, 0, f.ledger)
	return err
}

// tracedTransport is the cluster.Config.Transport wrapper: a
// cluster.fetch or cluster.push span per peer call, carrying the
// request id and span to the peer's handler.
type tracedTransport struct {
	base *http.Transport
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b, ok := tt.t.r.lookup(goid())
	if !ok {
		return tt.base.RoundTrip(req)
	}
	s := span{ID: tt.t.r.newID(), Parent: b.parent, Req: b.req, Name: "cluster.push", Start: tt.t.r.now()}
	if req.URL.Path == cluster.FetchPath {
		s.Name = "cluster.fetch"
	}
	out := req.Clone(req.Context())
	out.Header.Set(hdrReq, strconv.FormatInt(b.req, 10))
	out.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		s.End = tt.t.r.now()
		tt.t.r.add(s)
		return nil, err
	}
	// The span ends when the peer client closes the body, after reading
	// and verifying the framed reply.
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.End = tt.t.r.now()
		tt.t.r.add(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

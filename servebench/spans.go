package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced request. Spans of one client
// request share req; parent is the id of the span that caused this one
// (0 for the client span).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
	// Cache is the X-Cache of a handler or client span.
	Cache string `json:"cache,omitempty"`
	// Syncs and Bytes are the fsyncs and bytes written (store.put) or
	// bytes read (store.get) inside a store span.
	Syncs int64 `json:"syncs,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// binding is what a goroutine is currently doing on behalf of a traced
// request: new spans it records get req and parent from here.
type binding struct {
	req, parent int64
}

// recorder keeps a run's spans in memory. Layers the benchmark wraps
// from outside the program (the solver, the store's filesystem, the
// peer transport) cannot see the request they serve, so the recorder
// binds goroutines to requests: the HTTP handler wrapper binds its
// goroutine, and the solver wrapper binds the scheduler worker running
// the solve, which then persists and replicates the result.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	spans    []span
	bound    map[int64]binding // goroutine id → binding
	handlers map[int64]int64   // req → its serve.handler span id
	designs  map[string]int64  // design name → req now asking for it
}

func newRecorder() *recorder {
	return &recorder{
		epoch:    time.Now(),
		bound:    map[int64]binding{},
		handlers: map[int64]int64{},
		designs:  map[string]int64{},
	}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) bind(g int64, b binding) {
	r.mu.Lock()
	r.bound[g] = b
	r.mu.Unlock()
}

func (r *recorder) unbind(g int64) {
	r.mu.Lock()
	delete(r.bound, g)
	r.mu.Unlock()
}

// release drops every goroutine binding and index entry of req once its
// handler has returned.
func (r *recorder) release(req int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for g, b := range r.bound {
		if b.req == req {
			delete(r.bound, g)
		}
	}
	delete(r.handlers, req)
}

func (r *recorder) lookup(g int64) (binding, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bound[g]
	return b, ok
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:"). The runtime offers no
// other way to key state by goroutine; it costs about a microsecond and
// is paid only in the traced run.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// selfTime returns how much of parent's interval no child covers, and
// how much the children cover (overlaps counted once, anything outside
// parent's interval ignored). self + covered == parent.dur() always; a
// child reaching outside its parent is reported by outside.
func selfTime(parent span, children []span) (self, covered time.Duration, outside int) {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < parent.Start || e > parent.End {
			outside++
		}
		s, e = max(s, parent.Start), min(e, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var curS, curE time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered, covered, outside
}

// writeSpans writes the spans as JSON lines, ordered by start time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

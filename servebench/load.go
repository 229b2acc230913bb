package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// reply is what one call got back.
type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
	start  time.Time
	lat    time.Duration // send to last body byte
	err    error         // transport error; status is 0
}

// ok reports whether the reply is a 200 with the predicted X-Cache.
func (r *reply) ok(want string) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if want == wantWarm {
		return r.cache == wantHit || r.cache == "store"
	}
	return r.cache == want
}

// tagger adds headers to a request before it is sent; the traced run
// uses it to carry request and span ids into the daemon. Nil in
// measured runs.
type tagger func(client, i int, c call, req *http.Request)

// newHTTPClient returns a client whose connection pool keeps one
// connection per closed-loop client and node alive for the whole run.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// runClients drives the calls closed-loop: one goroutine per client,
// each sending its next request only when the previous reply has been
// read in full. It returns the replies in call order.
func runClients(ctx context.Context, hc *http.Client, urls []string, bodies [][]byte, calls [][]call, tag tagger) [][]reply {
	out := make([][]reply, len(calls))
	var wg sync.WaitGroup
	for c := range calls {
		out[c] = make([]reply, len(calls[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, cl := range calls[c] {
				if ctx.Err() != nil {
					out[c][i].err = ctx.Err()
					continue
				}
				out[c][i] = post(ctx, hc, urls[cl.node], bodies[cl.body], func(req *http.Request) {
					if tag != nil {
						tag(c, i, cl, req)
					}
				})
			}
		}(c)
	}
	wg.Wait()
	return out
}

// post sends one /v1/solve request and reads the whole reply.
func post(ctx context.Context, hc *http.Client, url string, body []byte, prep func(*http.Request)) reply {
	var r reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	prep(req)
	r.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		r.err = err
		r.lat = time.Since(r.start)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(r.start)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	return r
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"prpart/internal/jobs"
)

// BatchRequest is the wire schema of POST /v1/solve/batch: N ordinary
// solve request objects in one body. Every member is decoded, keyed and
// served exactly like a POST /v1/solve — same canonicalization, same
// cache key, same cache/store/coalescing tiers — but on the bulk
// scheduler tier, so a batch can never crowd out interactive traffic.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchItem is one member's outcome, in input order.
type BatchItem struct {
	// Key is the member's content-addressed solve key (empty when the
	// member failed to decode).
	Key string `json:"key,omitempty"`
	// Status is the member's HTTP-equivalent status: what the same body
	// would have gotten from POST /v1/solve.
	Status int `json:"status"`
	// Cache reports how the member was served: hit, store, miss,
	// coalesced — or dup for a member whose key already appeared
	// earlier in the same batch.
	Cache string `json:"cache,omitempty"`
	// Error carries the failure message for non-200 members.
	Error string `json:"error,omitempty"`
	// Result is the solve body for 200 members.
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the wire schema of the batch reply.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch is POST /v1/solve/batch. Members with identical keys are
// deduplicated inside the batch (one solve, shared result, later copies
// marked "dup"); distinct members fan out concurrently through the bulk
// tier with EnqueueWait providing flow control instead of refusals.
// Per-member failures land in that member's result entry; the batch
// itself only fails for transport-level problems (bad envelope, too
// many members, bulk tier already saturated on arrival).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST only"))
		return
	}
	s.cBatches.Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var batch BatchRequest
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding batch: %w", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("serve: trailing data after batch object"))
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch carries %d requests, limit %d", len(batch.Requests), s.cfg.MaxBatchItems))
		return
	}
	// Arrival backpressure: a bulk tier already at its bound refuses the
	// whole batch up front — cheaper for the client to back off now than
	// to trickle members through a saturated queue.
	if s.sched.Full(jobs.Bulk) {
		s.cRejected.Inc()
		s.retryAfter(w, s.sched.EstimateWait(jobs.Bulk))
		writeError(w, http.StatusServiceUnavailable, errBulkQueueFull)
		return
	}

	items := make([]BatchItem, len(batch.Requests))
	// reqs holds the members that actually execute: the first member
	// carrying each distinct key, recorded in leaders. Later members
	// with the same key are dups and copy its outcome.
	reqs := make([]*solveReq, len(batch.Requests))
	leaders := map[string]int{}
	for i, raw := range batch.Requests {
		q, err := s.parseSolve(r, raw)
		if err != nil {
			items[i] = BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		items[i] = BatchItem{Key: q.key}
		if _, dup := leaders[q.key]; dup {
			s.cBatchDups.Inc()
			items[i].Cache = "dup"
			continue
		}
		leaders[q.key] = i
		reqs[i] = q
	}

	var wg sync.WaitGroup
	for i, q := range reqs {
		if q == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := s.serveKey(r.Context(), q, s.admitMember)
			items[i].Status, items[i].Cache = out.status, out.cache
			if out.err != nil {
				items[i].Error = out.err.Error()
			} else {
				items[i].Result = out.body
			}
		}()
	}
	wg.Wait()

	for i := range items {
		if items[i].Cache == "dup" {
			first := items[leaders[items[i].Key]]
			items[i].Status, items[i].Error, items[i].Result = first.Status, first.Error, first.Result
		}
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(BatchResponse{Results: items})
}

// admitMember is the leader admission of a batch member: EnqueueWait on
// the bulk tier, so the member blocks (bounded by its own deadline)
// while the tier is full instead of being refused, which paces a large
// batch through a small queue. Members run in handler goroutines, never
// on a scheduler worker, so waiting on the flight cannot deadlock the
// pool.
func (s *Server) admitMember(wctx, _ context.Context, _ *solveReq, run func(context.Context)) (outcome, bool) {
	if _, err := s.sched.EnqueueWait(wctx, jobs.Bulk, run); err != nil {
		s.cRejected.Inc()
		status, ferr := tierFullError(jobs.Bulk)
		if !errors.Is(err, jobs.ErrTierFull) {
			status, ferr = http.StatusServiceUnavailable, err
		}
		return outcome{status: status, err: ferr}, false
	}
	return outcome{}, true
}

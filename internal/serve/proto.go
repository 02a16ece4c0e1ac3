// Wire protocol of the search service: the request JSON accepted by
// POST /search, the typed error envelope every non-streaming failure is
// reported through, and the NDJSON trailer object that terminates every
// streamed response. The decoder is deliberately strict — unknown fields,
// trailing garbage, out-of-range numbers and malformed guides all come back
// as typed 400s, never panics (FuzzDecodeRequest pins that) — because the
// daemon faces untrusted callers where the CLI faced a local input file.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"casoffinder/internal/fault"
	"casoffinder/internal/pipeline"
)

// Request priorities, ordered so a larger value is more important. The
// admission controller sheds the newest lowest-priority work first.
const (
	PriorityLow    = 0
	PriorityNormal = 1
	PriorityHigh   = 2
)

// SearchRequest is the JSON body of POST /search.
type SearchRequest struct {
	// Genome names the resident genome to scan. Optional when the server
	// holds exactly one.
	Genome string `json:"genome,omitempty"`
	// Pattern is the PAM scaffold, as in the input-file format.
	Pattern string `json:"pattern"`
	// Guides are the queries to compare at every PAM-compatible site.
	Guides []Guide `json:"guides"`
	// Priority is "high", "normal" (default) or "low"; under overload the
	// admission controller sheds the newest lowest-priority work first.
	Priority string `json:"priority,omitempty"`
	// TimeoutMs is the per-request deadline in milliseconds (0 = none);
	// expiry while queued is a 429, expiry mid-stream a deadline trailer.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Guide is one query guide with its mismatch budget.
type Guide struct {
	Guide         string `json:"guide"`
	MaxMismatches int    `json:"max_mismatches"`
}

// Trailer is the final NDJSON object of every streamed response. Done
// reports whether the search ran to completion; Degraded whether it strayed
// from the clean path (retries, failovers, watchdog kills or quarantined
// chunks — the counts follow). A response is only ever
// missing its trailer when the client went away first.
type Trailer struct {
	Done          bool       `json:"done"`
	Hits          int64      `json:"hits"`
	Degraded      bool       `json:"degraded"`
	Retries       int64      `json:"retries,omitempty"`
	Failovers     int64      `json:"failovers,omitempty"`
	WatchdogKills int64      `json:"watchdog_kills,omitempty"`
	Quarantined   int        `json:"quarantined,omitempty"`
	Error         *ErrorBody `json:"error,omitempty"`
}

// ErrorBody is the machine-readable error payload, both in the error
// envelope of a non-streaming failure and in the trailer of a stream that
// failed mid-flight.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// APIError is a typed request failure with the HTTP status it maps to.
type APIError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string { return fmt.Sprintf("serve: %s: %s", e.Code, e.Message) }

// apiErrorf builds an APIError.
func apiErrorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeAPIError renders the error envelope with its status code and, for
// backpressure rejections, the Retry-After hint.
func writeAPIError(w http.ResponseWriter, e *APIError, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct {
		Error ErrorBody `json:"error"`
	}{ErrorBody{Code: e.Code, Message: e.Message}})
}

// DecodeRequest reads and validates one search request. Every failure is an
// *APIError: malformed JSON, unknown fields, trailing data and oversized
// bodies map to 400/413; semantic mistakes (bad PAM codes, mismatched guide
// lengths, negative budgets, unknown priorities) map to 400 with the
// validation message. On success it returns the wire request, the compiled
// pipeline request (pattern and guides upper-cased like the input-file
// parser).
func DecodeRequest(r io.Reader, lim Limits) (*SearchRequest, *pipeline.Request, *APIError) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sreq SearchRequest
	if err := dec.Decode(&sreq); err != nil {
		if ae := bodyError(err); ae != nil {
			return nil, nil, ae
		}
		return nil, nil, apiErrorf(http.StatusBadRequest, "bad-json", "decoding request: %v", err)
	}
	// A second document (or trailing garbage) after the request object is a
	// malformed request, not ignorable slack.
	if err := ensureEOF(dec); err != nil {
		return nil, nil, err
	}
	if _, err := ParsePriority(sreq.Priority); err != nil {
		return nil, nil, err
	}
	if sreq.TimeoutMs < 0 {
		return nil, nil, apiErrorf(http.StatusBadRequest, "bad-timeout", "timeout_ms %d is negative", sreq.TimeoutMs)
	}
	if lim.MaxGuides > 0 && len(sreq.Guides) > lim.MaxGuides {
		return nil, nil, apiErrorf(http.StatusBadRequest, "too-many-guides",
			"%d guides exceed the per-request limit of %d", len(sreq.Guides), lim.MaxGuides)
	}
	preq := &pipeline.Request{Pattern: strings.ToUpper(sreq.Pattern)}
	for _, g := range sreq.Guides {
		preq.Queries = append(preq.Queries, pipeline.Query{
			Guide:         strings.ToUpper(g.Guide),
			MaxMismatches: g.MaxMismatches,
		})
	}
	if err := preq.Validate(); err != nil {
		return nil, nil, apiErrorf(http.StatusBadRequest, "bad-request", "%v", err)
	}
	return &sreq, preq, nil
}

// ensureEOF rejects trailing content after the decoded document.
func ensureEOF(dec *json.Decoder) *APIError {
	if _, err := dec.Token(); err != io.EOF {
		if ae := bodyError(err); ae != nil {
			return ae
		}
		return apiErrorf(http.StatusBadRequest, "bad-json", "trailing data after request object")
	}
	return nil
}

// bodyError types a body read that failed on size (413) or on the read
// deadline (408) rather than on content; nil for any other error.
func bodyError(err error) *APIError {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return apiErrorf(http.StatusRequestEntityTooLarge, "too-large", "request body exceeds %d bytes", mbe.Limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		return apiErrorf(http.StatusRequestTimeout, "body-timeout", "request body not received within %v", bodyReadTimeout)
	}
	return nil
}

// ParsePriority maps the wire priority to its admission level.
func ParsePriority(s string) (int, *APIError) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return 0, apiErrorf(http.StatusBadRequest, "bad-priority",
			"unknown priority %q (want high, normal or low)", s)
	}
}

// errorBodyOf maps a pass error to the trailer/envelope error body and the
// HTTP status it would take when nothing has been streamed yet. The mapping
// is the failure-mode table of DESIGN.md §14: client deadlines are 504,
// cancellations have no body (the client is gone), everything else is an
// internal error — fault-classed errors keep their site in the code so a
// caller can tell a device loss from a corrupt artifact.
func errorBodyOf(err error) (int, *ErrorBody) {
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &ErrorBody{Code: "deadline", Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return 0, nil
	}
	var fe *fault.Error
	if errors.As(err, &fe) {
		return http.StatusInternalServerError, &ErrorBody{Code: "fault:" + string(fe.Site), Message: err.Error()}
	}
	return http.StatusInternalServerError, &ErrorBody{Code: "internal", Message: err.Error()}
}

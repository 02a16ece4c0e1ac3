package serve

import (
	"net/http"
	"strings"
	"testing"
)

// FuzzDecodeRequest hammers the daemon's untrusted-input boundary: whatever
// bytes arrive, the decoder must return either a compiled, valid pipeline
// request or a typed 4xx — never panic, and never let an invalid request
// through to an engine. Registered in `make fuzz-regress`; the seed corpus
// replays on every plain `go test`.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`)
	f.Add(`{"genome":"hg38","pattern":"NNNNNNNNNNNRG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":2}],"priority":"high","timeout_ms":250,"chunk_bytes":4096,"no_coalesce":true}`)
	f.Add(`{"pattern":`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`"just a string"`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[],"fast":true}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GAT","max_mismatches":1}]}`)
	f.Add(`{"pattern":"NNNNNNNNNNNG!","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":-3}]}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"priority":"turbo"}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"timeout_ms":-1}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}{"pattern":"NN"}`)
	f.Add(`{"pattern":"nnnnnnnnnnngg","guides":[{"guide":"gattacagtannn","max_mismatches":0}]}`)
	f.Add(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"chunk_bytes":1073741825}`)
	f.Add(strings.Repeat(`{"guides":[`, 64))

	lim := Limits{MaxGuides: 8}.withDefaults()
	f.Fuzz(func(t *testing.T, body string) {
		sreq, preq, apiErr := DecodeRequest(strings.NewReader(body), lim)
		if apiErr != nil {
			if sreq != nil || preq != nil {
				t.Fatal("decoder returned both a request and an error")
			}
			if apiErr.Status != http.StatusBadRequest {
				// Without http.MaxBytesReader in front, every refusal here
				// is the caller's fault, never ours.
				t.Fatalf("status %d for %q, want 400", apiErr.Status, body)
			}
			if apiErr.Code == "" || apiErr.Message == "" {
				t.Fatalf("untyped rejection %+v for %q", apiErr, body)
			}
			return
		}
		if sreq == nil || preq == nil {
			t.Fatal("no error and no request")
		}
		// Anything the decoder lets through must already satisfy the
		// pipeline's own validation — engines never re-check.
		if err := preq.Validate(); err != nil {
			t.Fatalf("decoder admitted an invalid request (%v): %q", err, body)
		}
		if len(preq.Queries) > lim.MaxGuides {
			t.Fatalf("decoder admitted %d guides over the %d limit", len(preq.Queries), lim.MaxGuides)
		}
		if _, err := ParsePriority(sreq.Priority); err != nil {
			t.Fatalf("decoder admitted priority %q", sreq.Priority)
		}
		if sreq.TimeoutMs < 0 {
			t.Fatal("decoder admitted a negative timeout")
		}
	})
}

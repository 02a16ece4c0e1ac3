package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON the
// chrome://tracing and Perfetto UIs load): "X" complete events carry a
// microsecond timestamp and duration, "i" instant events a timestamp only,
// and "M" metadata events name the threads. Tracks map to thread IDs under
// one process, so each pipeline worker or device renders as its own row.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serialises the span log as Chrome trace-event JSON.
// Timestamps are microseconds since the tracer's epoch; nested spans (a
// find span inside its chunk span) nest by time containment, which both
// viewers render as stacked slices. Writing a nil tracer emits an empty but
// valid trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	// Deterministic track → tid assignment: first-appearance order in the
	// span log, which is itself deterministic for a one-slot run and stable
	// enough for several.
	tids := make(map[string]int)
	var tracks []string
	for _, s := range spans {
		if _, ok := tids[s.Track]; !ok {
			tids[s.Track] = len(tracks)
			tracks = append(tracks, s.Track)
		}
	}
	events := make([]chromeEvent, 0, len(spans)+len(tracks))
	for _, track := range tracks {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tids[track],
			Args:  map[string]any{"name": track},
		})
	}
	var epoch int64
	if t != nil {
		epoch = t.epoch.UnixNano()
	}
	body := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			TS:   float64(s.Start.UnixNano()-epoch) / 1e3,
			PID:  1,
			TID:  tids[s.Track],
			Args: map[string]any{},
		}
		if s.Chunk >= 0 {
			ev.Args["chunk"] = s.Chunk
		}
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
		if len(ev.Args) == 0 {
			ev.Args = nil
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			ev.Dur = float64(s.Duration.Nanoseconds()) / 1e3
			if ev.Dur <= 0 {
				// Zero-width complete events are invisible in the viewers;
				// give sub-microsecond spans a minimal visible width.
				ev.Dur = 0.001
			}
		}
		body = append(body, ev)
	}
	sort.SliceStable(body, func(i, j int) bool { return body[i].TS < body[j].TS })
	events = append(events, body...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

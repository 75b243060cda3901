package obs

import (
	"fmt"
	"strings"
	"time"
)

// TraceData is the immutable snapshot of one completed trace — the
// JSON shape served by GET /debug/traces.
type TraceData struct {
	// ID is the request ID (from X-Request-Id/traceparent, or
	// generated at the server edge).
	ID string `json:"id"`
	// Start is the wall-clock trace start.
	Start time.Time `json:"start"`
	// DurationNs is the whole request's duration in nanoseconds.
	DurationNs int64 `json:"durationNs"`
	// Offers and Groups count the offers ingested / groups formed
	// while this trace was active.
	Offers int64 `json:"offers"`
	Groups int64 `json:"groups"`
	// DroppedSpans counts spans that did not fit the arena.
	DroppedSpans int64 `json:"droppedSpans,omitempty"`
	// Spans are the recorded spans in arena (claim) order; Parent
	// indexes into this slice.
	Spans []SpanData `json:"spans"`
}

// SpanData is one recorded span.
type SpanData struct {
	// Name is the stage name (see Stages).
	Name string `json:"name"`
	// Parent is the index of the parent span in Spans, -1 for roots.
	Parent int `json:"parent"`
	// Shard is the engine shard the span ran for, -1 when the stage
	// was not shard-scoped.
	Shard int `json:"shard"`
	// StartNs is the span start as an offset from the trace start.
	StartNs int64 `json:"startNs"`
	// DurationNs is the span's duration; 0 means the span had not
	// ended when the trace finished.
	DurationNs int64 `json:"durationNs"`
}

// Tree renders the span forest as an indented text block — one span
// per line with duration, shard and start offset — for slow-request
// log lines.
func (td TraceData) Tree() string {
	children := make([][]int, len(td.Spans))
	var roots []int
	for i, sp := range td.Spans {
		if sp.Parent >= 0 && sp.Parent < len(td.Spans) && sp.Parent != i {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s total=%s offers=%d groups=%d\n",
		td.ID, time.Duration(td.DurationNs), td.Offers, td.Groups)
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		sp := td.Spans[idx]
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString(sp.Name)
		if sp.Shard >= 0 {
			fmt.Fprintf(&b, "[shard=%d]", sp.Shard)
		}
		if sp.DurationNs > 0 {
			fmt.Fprintf(&b, " %s", time.Duration(sp.DurationNs))
		} else {
			b.WriteString(" (unended)")
		}
		fmt.Fprintf(&b, " @+%s\n", time.Duration(sp.StartNs))
		for _, c := range children[idx] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if td.DroppedSpans > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped)\n", td.DroppedSpans)
	}
	return strings.TrimRight(b.String(), "\n")
}

// StageNames returns the distinct span names present in the trace —
// a convenience for tests asserting stage coverage.
func (td TraceData) StageNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sp := range td.Spans {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			out = append(out, sp.Name)
		}
	}
	return out
}

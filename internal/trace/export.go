package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// Chrome trace-event export: the JSON Object Format understood by
// Perfetto and chrome://tracing. Every span becomes one "X" (complete)
// event with microsecond ts/dur relative to the trace start; span
// events become "i" (instant) events on the same thread track. Args
// carry the span IDs and exact nanosecond interval so tooling (and the
// ValidateChrome nesting check) never depends on microsecond rounding.

// ChromeEvent is one trace-event object.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level export envelope.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// Chrome renders the trace in Chrome trace-event form. Spans still
// open when the root ended are clamped to the trace end, so the export
// is always well-nested in time.
func (tr *Trace) Chrome() *ChromeTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	end := tr.start.Add(tr.dur)
	out := &ChromeTrace{DisplayTimeUnit: "ms"}
	// A root adopted from an incoming traceparent carries a remote
	// parent span that has no event here; export it as parent_external
	// so the nesting check only follows local links.
	local := make(map[SpanID]bool, len(tr.spans))
	for _, sp := range tr.spans {
		local[sp.id] = true
	}
	for _, sp := range tr.spans {
		startNs := sp.start.Sub(tr.start).Nanoseconds()
		durNs := sp.clampedDur(end).Nanoseconds()
		args := map[string]any{
			"trace_id":  tr.id.String(),
			"span_id":   sp.id.String(),
			"offset_ns": startNs,
			"dur_ns":    durNs,
		}
		if !sp.parent.IsZero() {
			if local[sp.parent] {
				args["parent_id"] = sp.parent.String()
			} else {
				args["parent_external"] = sp.parent.String()
			}
		}
		if sp.errMsg != "" {
			args["error"] = sp.errMsg
		}
		for _, a := range sp.attrs {
			if a.Key != "" {
				args[a.Key] = a.Value()
			}
		}
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: sp.name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(startNs) / 1e3,
			Dur:  float64(durNs) / 1e3,
			PID:  1,
			TID:  int64(sp.lane),
			Args: args,
		})
		for _, ev := range sp.events {
			evArgs := map[string]any{"span_id": sp.id.String()}
			for _, a := range ev.Attrs {
				if a.Key != "" {
					evArgs[a.Key] = a.Value()
				}
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: ev.Name,
				Cat:  "event",
				Ph:   "i",
				TS:   float64(ev.At.Sub(tr.start).Nanoseconds()) / 1e3,
				PID:  1,
				TID:  int64(sp.lane),
				S:    "t",
				Args: evArgs,
			})
		}
	}
	return out
}

// clampedDur is the span's duration with an end still open, or past the
// trace end, clamped to the trace end; never negative.
func (sp *Span) clampedDur(traceEnd time.Time) time.Duration {
	end := sp.end
	if end.IsZero() || end.After(traceEnd) {
		end = traceEnd
	}
	return max(end.Sub(sp.start), 0)
}

// Digest renders a finished trace as a short text summary (qsim
// -trace-summary): per span name the count and total wall time, busiest
// first; per event name the count and, for events that carry a "depth"
// attribute, its peak; and the spans and events the caps dropped, so a
// truncated trace says so.
func (tr *Trace) Digest() string {
	type row struct {
		name     string
		n        int
		dur      time.Duration
		peak     int64
		hasDepth bool
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	end := tr.start.Add(tr.dur)
	spans, events := map[string]*row{}, map[string]*row{}
	get := func(m map[string]*row, name string) *row {
		r := m[name]
		if r == nil {
			r = &row{name: name}
			m[name] = r
		}
		return r
	}
	nev := 0
	for _, sp := range tr.spans {
		r := get(spans, sp.name)
		r.n++
		r.dur += sp.clampedDur(end)
		for _, ev := range sp.events {
			nev++
			e := get(events, ev.Name)
			e.n++
			for _, a := range ev.Attrs {
				if a.Key == "depth" && a.isNum && (!e.hasDepth || a.num > e.peak) {
					e.peak, e.hasDepth = a.num, true
				}
			}
		}
	}
	sorted := func(m map[string]*row, by func(a, b *row) int) []*row {
		rows := make([]*row, 0, len(m))
		for _, r := range m {
			rows = append(rows, r)
		}
		slices.SortFunc(rows, func(a, b *row) int { return cmp.Or(by(a, b), strings.Compare(a.name, b.name)) })
		return rows
	}
	var b strings.Builder
	fmt.Fprintf(&b, "span trace: %d spans (%d dropped), %d events (%d dropped)\n",
		len(tr.spans), tr.dropped, nev, tr.droppedEvents)
	fmt.Fprintf(&b, "  %-18s %8s %12s\n", "span", "count", "total ms")
	for _, r := range sorted(spans, func(a, b *row) int { return cmp.Compare(b.dur, a.dur) }) {
		fmt.Fprintf(&b, "  %-18s %8d %12.3f\n", r.name, r.n, float64(r.dur)/1e6)
	}
	if len(events) > 0 {
		fmt.Fprintf(&b, "  %-18s %8s %12s\n", "event", "count", "peak depth")
		for _, r := range sorted(events, func(*row, *row) int { return 0 }) {
			peak := "-"
			if r.hasDepth {
				peak = fmt.Sprint(r.peak)
			}
			fmt.Fprintf(&b, "  %-18s %8d %12s\n", r.name, r.n, peak)
		}
	}
	return b.String()
}

// WriteChrome writes the Chrome trace-event JSON to w.
func (tr *Trace) WriteChrome(w io.Writer) error {
	data, err := json.MarshalIndent(tr.Chrome(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteChromeFile writes the Chrome trace-event JSON to a file.
func (tr *Trace) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChrome checks that data is a loadable Chrome trace-event
// export with a well-formed span tree: valid JSON, at least one span,
// exactly one root, every parent_id resolvable, and every child's
// exact nanosecond interval contained in its parent's. This is the
// trace-smoke gate (`qsim -verify-trace`).
func ValidateChrome(data []byte) error {
	var ct ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	type spanIv struct {
		start, end int64
	}
	spans := map[string]spanIv{}
	type link struct {
		name, id, parent string
	}
	var links []link
	roots := 0
	for i, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		args := ev.Args
		id, _ := args["span_id"].(string)
		if id == "" {
			return fmt.Errorf("trace: span event %d (%q) missing span_id", i, ev.Name)
		}
		offF, ok := asInt(args["offset_ns"])
		if !ok {
			return fmt.Errorf("trace: span %q missing offset_ns", ev.Name)
		}
		durF, ok := asInt(args["dur_ns"])
		if !ok || durF < 0 {
			return fmt.Errorf("trace: span %q missing or negative dur_ns", ev.Name)
		}
		if _, dup := spans[id]; dup {
			return fmt.Errorf("trace: duplicate span_id %s", id)
		}
		spans[id] = spanIv{start: offF, end: offF + durF}
		parent, _ := args["parent_id"].(string)
		if parent == "" {
			roots++
		}
		links = append(links, link{name: ev.Name, id: id, parent: parent})
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans in export")
	}
	if roots != 1 {
		return fmt.Errorf("trace: %d root spans, want exactly 1", roots)
	}
	for _, l := range links {
		if l.parent == "" {
			continue
		}
		p, ok := spans[l.parent]
		if !ok {
			return fmt.Errorf("trace: span %q (%s) references unknown parent %s", l.name, l.id, l.parent)
		}
		c := spans[l.id]
		if c.start < p.start || c.end > p.end {
			return fmt.Errorf("trace: span %q [%d,%d]ns escapes parent %s [%d,%d]ns",
				l.name, c.start, c.end, l.parent, p.start, p.end)
		}
	}
	return nil
}

// ValidateChromeFile validates an exported trace file.
func ValidateChromeFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return ValidateChrome(data)
}

// asInt coerces a decoded JSON number (float64) or an in-memory int64
// to int64.
func asInt(v any) (int64, bool) {
	switch n := v.(type) {
	case float64:
		return int64(n), true
	case int64:
		return n, true
	case int:
		return int64(n), true
	}
	return 0, false
}

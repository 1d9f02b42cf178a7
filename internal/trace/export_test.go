package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func buildTestTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New(Config{Seed: 3})
	root := tr.Start("request", SpanContext{}, String("tenant", "a"))
	q := root.Child("queue_wait")
	q.End()
	ex := root.Child("execute", Int("workers", 2))
	seg := ex.Child("segment_compile", String("cache", "miss"), Int("from", 0), Int("to", 3))
	seg.End()
	w := ex.Child("subtree_task")
	w.SetWorker(1)
	w.Event("snapshot_push", Int("depth", 2))
	w.End()
	ex.End()
	root.SetAttr(Int("ops", 1234))
	root.End()
	return root.Trace()
}

func TestChromeExportValidates(t *testing.T) {
	trace := buildTestTrace(t)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	// The envelope is plain Chrome trace-event JSON.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	evs, ok := raw["traceEvents"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatal("no traceEvents array")
	}
	// 5 spans ("X") + 1 instant event ("i").
	var xs, is int
	for _, e := range evs {
		switch e.(map[string]any)["ph"] {
		case "X":
			xs++
		case "i":
			is++
		}
	}
	if xs != 5 || is != 1 {
		t.Fatalf("got %d X / %d i events, want 5/1", xs, is)
	}
	// Attributes and error-free args survive the round trip.
	s := buf.String()
	for _, needle := range []string{`"tenant": "a"`, `"cache": "miss"`, `"ops": 1234`, `"snapshot_push"`} {
		if !strings.Contains(s, needle) {
			t.Errorf("export missing %s", needle)
		}
	}
	// The worker span rides its own thread track.
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int64{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.TID
		}
	}
	if lanes["request"] != 1 || lanes["subtree_task"] != 3 {
		t.Fatalf("lanes = %v (want request on 1, worker-1 task on 3)", lanes)
	}
}

func TestChromeExportFile(t *testing.T) {
	trace := buildTestTrace(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.WriteChromeFile(path); err != nil {
		t.Fatalf("WriteChromeFile: %v", err)
	}
	if err := ValidateChromeFile(path); err != nil {
		t.Fatalf("ValidateChromeFile: %v", err)
	}
}

func TestErrorSurvivesExport(t *testing.T) {
	tr := New(Config{Seed: 3})
	root := tr.Start("request", SpanContext{})
	root.SetError(errors.New("boom"))
	root.End()
	var buf bytes.Buffer
	if err := root.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"error": "boom"`) {
		t.Fatal("error message missing from export")
	}
}

func TestValidateChromeRejects(t *testing.T) {
	mk := func(events ...map[string]any) []byte {
		data, err := json.Marshal(map[string]any{"traceEvents": events})
		if err != nil {
			panic(err)
		}
		return data
	}
	span := func(name, id, parent string, off, dur int64) map[string]any {
		args := map[string]any{"span_id": id, "offset_ns": off, "dur_ns": dur}
		if parent != "" {
			args["parent_id"] = parent
		}
		return map[string]any{"name": name, "ph": "X", "ts": 0, "pid": 1, "tid": 1, "args": args}
	}
	cases := map[string][]byte{
		"not json":       []byte("{nope"),
		"no spans":       mk(),
		"two roots":      mk(span("a", "1", "", 0, 10), span("b", "2", "", 0, 10)),
		"unknown parent": mk(span("a", "1", "", 0, 10), span("b", "2", "9", 0, 5)),
		"dup span id":    mk(span("a", "1", "", 0, 10), span("b", "1", "1", 0, 5)),
		"child escapes":  mk(span("a", "1", "", 0, 10), span("b", "2", "1", 5, 20)),
		"negative dur":   mk(span("a", "1", "", 0, -1)),
		"missing id":     mk(map[string]any{"name": "a", "ph": "X", "args": map[string]any{}}),
	}
	for name, data := range cases {
		if err := ValidateChrome(data); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
	// The well-formed shape passes.
	ok := mk(span("a", "1", "", 0, 10), span("b", "2", "1", 2, 5))
	if err := ValidateChrome(ok); err != nil {
		t.Errorf("well-formed trace rejected: %v", err)
	}
}

func TestUnendedChildClampedToTraceEnd(t *testing.T) {
	tr := New(Config{Seed: 3})
	root := tr.Start("request", SpanContext{})
	root.Child("leaked") // never ended
	root.End()
	var buf bytes.Buffer
	if err := root.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("clamped export fails validation: %v", err)
	}
}

// TestDigestSummarizesSpansAndEvents: the digest counts spans and events
// by name, reports the peak "depth" attribute only for events that carry
// one, and shows the spans and events the caps dropped.
func TestDigestSummarizesSpansAndEvents(t *testing.T) {
	tr := New(Config{Seed: 5, MaxSpans: 3, MaxEvents: 2})
	root := tr.Start("qsim", SpanContext{})
	ex := root.Child("execute")
	ex.Event("snapshot_push", Int("depth", 1))
	ex.Event("snapshot_push", Int("depth", 3))
	ex.Event("snapshot_push", Int("depth", 2)) // over the event cap
	ex.Event("snapshot_restore")               // over the event cap
	task := root.Child("subtree_task")
	task.Event("spawn", Int("task", 7))
	root.Child("subtree_task").End() // over the span cap
	task.End()
	ex.End()
	root.End()

	got := root.Trace().Digest()
	for _, want := range []string{
		"span trace: 3 spans (1 dropped), 3 events (2 dropped)",
		"execute                   1",
		"subtree_task              1",
		"snapshot_push             2            3",
		"spawn                     1            -",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("digest missing %q:\n%s", want, got)
		}
	}
}

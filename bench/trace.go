package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, taken from outside the layer: the
// benchmark reads the clock before and after calling a public function.
// Parent is the index of the span that caused it (-1 for a root); the link
// is logical, so a child need not lie inside its parent on the time axis.
// An aggregated span (Calls > 1) stands for many short calls of one layer
// within one level of the replay: Dur is their sum and Start is synthetic,
// laid after the previous layer of the same level.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's origin
	Dur    time.Duration
	Parent int
	Tid    int // 0 = the benchmark's own goroutine, r+1 = mp rank r, 100+c = HTTP client c
	Rep    int
	Calls  int
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is how end-to-end runs are measured with tracing
// off.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, tid, rep int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Tid: tid, Rep: rep, Calls: 1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].Dur = now - r.spans[id].Start
	r.mu.Unlock()
}

// add records an already measured span.
func (r *recorder) add(name string, parent int, start, dur time.Duration, rep, calls int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, Dur: dur, Parent: parent, Rep: rep, Calls: calls})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// since is the recorder's clock, for spans added after the fact.
func (r *recorder) since() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.origin)
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// selfTimes returns, per span name, the summed duration minus the part the
// spans' children account for. Children on one track (Tid) add up; tracks
// (ranks, clients) run side by side, so of several the longest counts.
func (r *recorder) selfTimes() map[string]time.Duration {
	type track struct{ parent, tid int }
	perTrack := map[track]time.Duration{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			perTrack[track{s.Parent, s.Tid}] += s.Dur
		}
	}
	child := make([]time.Duration, len(r.spans))
	for t, d := range perTrack {
		child[t.parent] = max(child[t.parent], d)
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += s.Dur - child[i]
	}
	return out
}

// selfSummary lists the layers by self time, largest first.
func (r *recorder) selfSummary() string {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f", n, float64(self[n].Nanoseconds())/1e6)
	}
	return b.String()
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = r.spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": i, "parent": parent, "parent_id": s.Parent, "workload": r.workload, "rep": s.Rep, "calls": s.Calls},
		})
	}
	buf, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

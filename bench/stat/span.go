package stat

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the index of the span that caused it (-1 for the
// root). Track separates goroutines: spans of one track never overlap
// unless nested, so self-time is well defined per track.
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	Track    int    `json:"track"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how the untraced pass runs the same code.
type Recorder struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, origin: time.Now()}
}

// Begin opens a span under parent on track and returns its index.
func (r *Recorder) Begin(name string, parent, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Workload: r.workload, Parent: parent, Track: track, StartNS: now, EndNS: -1})
	return len(r.spans) - 1
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns each span's self-time in nanoseconds: its duration
// minus the part of it that its child spans on the same track cover.
// Overlapping children are counted once. Children on another track ran
// beside the span, not inside it, and take nothing from it.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Track == s.Track {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < until {
				lo = until
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

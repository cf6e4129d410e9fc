package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. Nearest rank keeps every reported percentile a latency that
// a real request had, which matters on the warm mixes where the samples
// fall into a few clusters far apart.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank, the
// support a reported percentile stands on.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// geomean is the geometric mean of positive samples (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median is the interpolated middle of xs, for repeated measurements
// (set-up times, per-program layer timings) rather than request latencies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides and maps an empty base to 0 so no NaN reaches the JSON.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the index of the enclosing span in the recorder (-1 for
// a root).
type Span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Spans records intervals in memory; they are written out once the run
// ends. Not safe for concurrent use: callers serialize through their own
// lock.
type Spans struct {
	epoch time.Time
	list  []Span
}

func newSpans() *Spans { return &Spans{epoch: time.Now()} }

// Add records [start, end) under parent and returns its index.
func (r *Spans) Add(name string, req, parent int, start, end time.Time) int {
	r.list = append(r.list, Span{
		Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(),
		End:   end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.list) - 1
}

// AddChildAtEnd records a child of known length whose position inside the
// parent is not observed (a server-reported duration): it is placed flush
// with the parent's end and clipped to the parent's start. Self-time
// arithmetic depends only on its length.
func (r *Spans) AddChildAtEnd(name string, parent int, d time.Duration) int {
	p := r.list[parent]
	start := p.End - d.Nanoseconds()
	if start < p.Start {
		start = p.Start
	}
	r.list = append(r.list, Span{Name: name, Req: p.Req, Parent: parent, Start: start, End: p.End})
	return len(r.list) - 1
}

// SelfTimes returns, for every span keep selects, its duration minus the
// part of its interval covered by the union of its children.
func SelfTimes(spans []Span, keep func(Span) bool) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		out = append(out, s.Dur()-covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// named selects the spans called name.
func named(name string) func(Span) bool {
	return func(s Span) bool { return s.Name == name }
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

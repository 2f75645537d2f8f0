package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"slices"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// ID is unique within the trace; Parent is the causing span's ID (or
	// noParent); Req identifies the request the span served.
	ID     int64 `json:"id"`
	Parent int64 `json:"parent"`
	Req    int64 `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory, one lane per goroutine so recording
// takes no lock; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

type lane struct {
	tr    *tracer
	idx   int64
	spans []span
}

// laneStride separates lanes' span-ID spaces.
const laneStride = 1 << 40

// newTracer preallocates room for capacity spans per lane, so recording
// does not grow slices mid-run.
func newTracer(lanes, capacity int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{tr: t, idx: int64(i), spans: make([]span, 0, capacity)})
	}
	return t
}

func (t *tracer) lane(i int) *lane { return t.lanes[i] }

// add records a finished span and returns its ID.
func (l *lane) add(name string, start, end time.Time, parent, req int64) int64 {
	id := l.idx*laneStride + int64(len(l.spans))
	l.spans = append(l.spans, span{
		Name:   name,
		Start:  start.Sub(l.tr.epoch).Nanoseconds(),
		End:    end.Sub(l.tr.epoch).Nanoseconds(),
		ID:     id,
		Parent: parent,
		Req:    req,
	})
	return id
}

// durations returns every span duration recorded under name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (nearest rank) of ds, sorting ds in
// place; 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sqlb"
	"sqlb/internal/timeline"
)

// stage names one traced boundary. Spans are recorded only from this
// package, around the calls it makes into the program's layers.
type stage uint8

const (
	stSimRun    stage = iota // one whole Simulation.Run
	stQuery                  // one replayed query through every stage
	stLookup                 // MatchIndex.Lookup or the server's matchmaker
	stIntention              // Definitions 7 and 8 over Pq
	stCommit                 // Mediator.AllocateCollected: score/rank/select + notification
	stAllocator              // the strategy's own Allocate (Definition 9 score/rank/select)
	stTimeline               // one timeline Sink.Append
	stBatch                  // one MediationServer.MediateBatch call
	stAllocate               // one Mediator.Allocate call
	nStages
)

var stageNames = [nStages]string{
	"sim.run", "query", "matchmaking.lookup", "intention", "mediator.commit",
	"allocator", "timeline.append", "mediator.batch", "mediator.allocate",
}

// span is one traced interval. Times are nanoseconds since the tracer's
// origin; parent indexes the enclosing span (-1 for a root).
type span struct {
	start, end int64
	qid        uint64
	parent     int32
	name       stage
}

// tracer keeps spans in memory and writes them out once, at the end. It is
// used from one goroutine at a time: spans nest by call order.
type tracer struct {
	origin time.Time
	spans  []span
	open   int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18), open: -1}
}

func (t *tracer) begin(name stage, qid uint64) int32 {
	t.spans = append(t.spans, span{name: name, qid: qid, parent: t.open, start: int64(time.Since(t.origin))})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.origin))
	t.open = t.spans[i].parent
}

// stageTotal aggregates the spans of one stage. self is the total minus
// the time covered by direct child spans.
type stageTotal struct {
	n           int
	total, self time.Duration
}

func (st stageTotal) meanUS() float64 { return ratio(st.total.Seconds()*1e6, float64(st.n)) }

func (t *tracer) totals() [nStages]stageTotal {
	var out [nStages]stageTotal
	for _, s := range t.spans {
		d := time.Duration(s.end - s.start)
		out[s.name].n++
		out[s.name].total += d
		out[s.name].self += d
		if s.parent >= 0 {
			out[t.spans[s.parent].name].self -= d
		}
	}
	return out
}

// save writes the spans to dir/name.csv; a failure is reported, not
// fatal, because the metrics are already taken.
func (t *tracer) save(rep *report, dir, name string) {
	if err := t.write(filepath.Join(dir, name+".csv")); err != nil {
		rep.note("spans not written: %v", err)
	}
}

// reportAllocator records the allocator metrics from the decorated
// strategy's spans; wall is the time the traced calls ran in.
func (t *tracer) reportAllocator(rep *report, wall time.Duration) {
	alloc := t.totals()[stAllocator]
	rep.layer("allocator.us_per_call", "us", alloc.meanUS(), alloc.n)
	rep.layer("allocator.calls", "count", float64(alloc.n), alloc.n)
	rep.layer("allocator.share", "share", ratio(alloc.total.Seconds(), wall.Seconds()), alloc.n)
}

// write stores the spans as CSV (id,name,parent,qid,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,qid,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, stageNames[s.name], s.parent, s.qid, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAllocator decorates a strategy with an allocator span per call.
type tracedAllocator struct {
	inner sqlb.Allocator
	tr    *tracer
}

func (a tracedAllocator) Name() string { return a.inner.Name() }

func (a tracedAllocator) Allocate(req *sqlb.AllocationRequest) []int {
	var qid uint64
	if req.Query != nil {
		qid = req.Query.ID
	}
	s := a.tr.begin(stAllocator, qid)
	sel := a.inner.Allocate(req)
	a.tr.end(s)
	return sel
}

// tracedSink decorates a timeline sink with a span per appended row.
type tracedSink struct {
	inner timeline.Sink
	tr    *tracer
}

func (s tracedSink) Append(snap timeline.Snapshot) error {
	sp := s.tr.begin(stTimeline, 0)
	err := s.inner.Append(snap)
	s.tr.end(sp)
	return err
}

func (s tracedSink) Close() error { return s.inner.Close() }

// tracedMatcher decorates the server's matchmaker with a lookup span and
// counts the |Pq| it returns.
type tracedMatcher struct {
	inner   sqlb.Matchmaker
	tr      *tracer
	lookups int
	pqSum   int
}

func (m *tracedMatcher) Match(q *sqlb.Query, pop *sqlb.Population) []*sqlb.Provider {
	s := m.tr.begin(stLookup, q.ID)
	pq := m.inner.Match(q, pop)
	m.tr.end(s)
	m.lookups++
	m.pqSum += len(pq)
	return pq
}

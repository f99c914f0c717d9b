package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval. Times are microseconds since the
// recorder's epoch on the wall clock, which the shards' JobView stamps
// share (the shards run in this process).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0: a root span
	Job     string  `json:"job"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Calls is how many timed calls a kernel-phase span covers.
	Calls int `json:"calls,omitempty"`
}

// spanRecorder keeps spans in memory until the run writes them out.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now().Round(0)} }

// at converts t to the span clock. Round(0) drops the monotonic
// reading, so client stamps and the decoded JobView stamps (which have
// none) are read on the same clock.
func (r *spanRecorder) at(t time.Time) float64 { return float64(t.Round(0).Sub(r.epoch)) / 1e3 }

func (r *spanRecorder) add(parent int, job, name string, start, end time.Time, calls int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(span{Parent: parent, Job: job, Name: name, Calls: calls, StartUs: r.at(start), EndUs: r.at(end)})
}

func (r *spanRecorder) addLocked(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// addTree records a root span and its children, which carry names,
// times and call counts; they get the root's job ID.
func (r *spanRecorder) addTree(job, name string, start, end time.Time, kids []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := r.addLocked(span{Job: job, Name: name, StartUs: r.at(start), EndUs: r.at(end)})
	for _, k := range kids {
		k.Parent, k.Job = root, job
		r.addLocked(k)
	}
}

// job records a served job: the client.job root, the client's
// cluster.submit and cluster.wait, and the shard's serve.queue and
// serve.run rebuilt from the job's stamps. An open-loop job's root
// runs from its due time; its result is collected after the timed
// phase, so it has no cluster.wait.
func (r *spanRecorder) job(o outcome) {
	v := o.view
	if o.due.IsZero() {
		root := r.add(0, o.id, "client.job", o.t0, o.t2, 0)
		r.add(root, o.id, "cluster.submit", o.t0, o.t1, 0)
		r.add(root, o.id, "cluster.wait", o.t1, o.t2, 0)
		r.add(root, o.id, "serve.queue", v.Submitted, v.Started, 0)
		r.add(root, o.id, "serve.run", v.Started, v.Finished, 0)
		return
	}
	end := v.Finished
	if o.t1.After(end) {
		end = o.t1
	}
	root := r.add(0, o.id, "client.job", o.due, end, 0)
	r.add(root, o.id, "cluster.submit", o.t0, o.t1, 0)
	r.add(root, o.id, "serve.queue", v.Submitted, v.Started, 0)
	r.add(root, o.id, "serve.run", v.Started, v.Finished, 0)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name       string  `json:"name"`
	Layer      string  `json:"layer"`
	Spans      int     `json:"spans"`
	Calls      int     `json:"calls"`
	SelfMs     float64 `json:"self_ms"`
	SelfUsCall float64 `json:"self_us_per_call"`
}

// layerOf is the span name's layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) []selfRow {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		self := (s.EndUs - s.StartUs) - covered(s, kids[s.ID])
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name, Layer: layerOf(s.Name)}
			rows[s.Name] = row
		}
		row.Spans++
		calls := s.Calls
		if calls == 0 {
			calls = 1
		}
		row.Calls += calls
		row.SelfMs += self / 1e3
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		row.SelfUsCall = 1e3 * row.SelfMs / float64(row.Calls)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.StartUs, c.EndUs
		if a < parent.StartUs {
			a = parent.StartUs
		}
		if b > parent.EndUs {
			b = parent.EndUs
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.StartUs
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanFile is the traced run's output document.
type spanFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	SelfTime []selfRow `json:"self_time"`
	Layers   []struct {
		Layer  string  `json:"layer"`
		SelfMs float64 `json:"self_ms"`
	} `json:"layers"`
	Overhead struct {
		UntracedJobsPerS float64 `json:"untraced_jobs_per_s"`
		TracedJobsPerS   float64 `json:"traced_jobs_per_s"`
		Ratio            float64 `json:"traced_over_untraced"`
	} `json:"tracing_overhead"`
	// Computed holds figures derived from sizes, not measured.
	Computed map[string]float64 `json:"computed"`
	// NotRun lists per-layer metrics reported as 0 because the
	// workload never runs that layer.
	NotRun []string `json:"not_run,omitempty"`
	Spans  []span   `json:"spans"`
}

// write saves the spans, the self-time table and the per-layer roll-up.
func (r *spanRecorder) write(path string, doc *spanFile) error {
	r.mu.Lock()
	doc.Spans = append([]span(nil), r.spans...)
	r.mu.Unlock()
	doc.SelfTime = selfTimes(doc.Spans)
	byLayer := map[string]float64{}
	for _, row := range doc.SelfTime {
		byLayer[row.Layer] += row.SelfMs
	}
	for _, l := range sortedKeys(byLayer) {
		doc.Layers = append(doc.Layers, struct {
			Layer  string  `json:"layer"`
			SelfMs float64 `json:"self_ms"`
		}{l, byLayer[l]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

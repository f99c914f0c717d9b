package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hpfcg/internal/mfree"
	"hpfcg/internal/serve"
	"hpfcg/internal/sparse"
)

// residualFactor is how far the recomputed relative residual may exceed
// the requested tolerance before an answer counts as wrong.
const residualFactor = 10

// operatorOf returns y = A·x for the job's operator and its size,
// rebuilt on the client side from the spec alone: the assembled
// generator matrix, or the matrix-free stencil (an hpcg job's fine grid
// is the 27-point stencil over the ranks' stacked bricks).
func operatorOf(sp serve.JobSpec) (func(x, y []float64), int, error) {
	switch sp.Method {
	case "stencil":
		st := mfree.Spec{Stencil: sp.Stencil.Stencil, Nx: sp.Stencil.Nx, Ny: sp.Stencil.Ny, Nz: sp.Stencil.Nz,
			Center: sp.Stencil.Center, Off: sp.Stencil.Off}.WithDefaults()
		return st.MulVec, st.N(), nil
	case "hpcg":
		st := mfree.Spec{Stencil: "27pt", Nx: sp.MG.Nx, Ny: sp.MG.Ny, Nz: sp.MG.Nz * sp.NP}.WithDefaults()
		return st.MulVec, st.N(), nil
	}
	A, err := sparse.GeneratorByName(sp.Matrix)
	if err != nil {
		return nil, 0, err
	}
	return A.MulVec, A.NRows, nil
}

// relResidual recomputes ||b - A·x|| / ||b|| for a reply.
func relResidual(sp serve.JobSpec, x []float64) (float64, error) {
	mul, n, err := operatorOf(sp)
	if err != nil {
		return 0, err
	}
	if len(x) != n {
		return 0, fmt.Errorf("solution has %d entries, want %d", len(x), n)
	}
	b := sparse.RandomVector(n, sp.Seed)
	y := make([]float64, n)
	mul(x, y)
	var rr, bb float64
	for i := range b {
		d := b[i] - y[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb), nil
}

// firstReply is what a key's first answers fixed. The answer (x and
// the iteration count) is fixed by the key's first reply of any kind.
// The modeled solve time is fixed by its first timed reply that ran
// alone (batch size 1), one reference for a cold plan and one for a
// warm one: a cold reply's solve span is measured from the end of its
// set-up, and a batched reply's from the end of the batch's previous
// solve, whose rank skew it carries. Both differ from a warm solo
// solve's in the last digits, so batched replies are not compared.
type firstReply struct {
	x          []float64
	iterations int
	timed      bool    // a timed reply has been seen
	setupModel float64 // setup_model_time of the first timed reply
	solo       [2]bool // a timed solo reply has been seen, cold [0] and warm [1]
	soloModel  [2]float64
}

func warmIndex(hit bool) int {
	if hit {
		return 1
	}
	return 0
}

// outcome is one attempted job as the client saw it.
type outcome struct {
	key   int
	id    string // the cluster job ID from the ack
	spec  serve.JobSpec
	timed bool
	// t0 is the submit start (closed loop) and due the scheduled send
	// time (open loop); t1 is the ack, t2 the result at the client.
	t0, t1, t2 time.Time
	due        time.Time
	shard      string
	view       serve.JobView
	err        error
}

// collector gates every answer and accumulates the timed samples.
type collector struct {
	js    *jobSet
	spans *spanRecorder // nil when untraced

	mu        sync.Mutex
	first     map[int]*firstReply
	attempted int
	completed int // timed jobs that finished (any answer)
	refused   int
	failed    int
	wrong     int
	errs      []string

	latMs, queueMs, runMs, submitMs, overheadMs []float64
	batchInv                                    float64
	hits                                        int
	perShard                                    map[string]int
}

func newCollector(js *jobSet) *collector {
	return &collector{js: js, first: map[int]*firstReply{}, perShard: map[string]int{}}
}

func (c *collector) note(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// resetTimed clears the timed samples (set-up replies stay gated and
// counted, their first answers stay the reference).
func (c *collector) resetTimed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed, c.hits, c.batchInv = 0, 0, 0
	c.latMs, c.queueMs, c.runMs, c.submitMs, c.overheadMs = nil, nil, nil, nil, nil
	c.perShard = map[string]int{}
}

// record gates one outcome: refusals and failures are counted, never
// retried; an answer must have converged, must have a recomputed
// residual within residualFactor×tol, and must repeat its key's first
// answer bit for bit.
func (c *collector) record(o outcome) {
	var res *serve.JobResult
	if o.err == nil && o.view.State == serve.StateDone {
		res = o.view.Result
	}
	if res == nil || !res.Converged {
		c.mu.Lock()
		c.attempted++
		switch {
		case errors.Is(o.err, errRefused):
			c.refused++
		case o.err != nil:
			c.failed++
			c.note("job %d: %v", o.key, o.err)
		case res == nil:
			c.failed++
			c.note("job %d: %s: %s", o.key, o.view.State, o.view.Error)
		default:
			c.wrong++
			c.note("job %d: not converged after %d iterations", o.key, res.Iterations)
		}
		c.mu.Unlock()
		return
	}

	c.mu.Lock()
	ref := c.first[o.key]
	c.mu.Unlock()
	if ref == nil {
		rel, err := relResidual(o.spec, res.X)
		c.mu.Lock()
		switch {
		case err != nil:
			c.wrong++
			c.note("job %d: residual check: %v", o.key, err)
		case !(rel <= residualFactor*o.spec.Tol):
			c.wrong++
			c.note("job %d: relative residual %.3g > %g", o.key, rel, residualFactor*o.spec.Tol)
		}
		// Fresh keys never repeat: only the prefix, which the replay
		// re-solves, is kept.
		if c.first[o.key] == nil && (c.js.fresh == nil || o.key < c.js.prefix) {
			c.first[o.key] = &firstReply{x: res.X, iterations: res.Iterations}
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ref != nil && !sameAnswer(ref, res.X, res.Iterations) {
		c.wrong++
		c.note("job %d: answer differs from the key's first answer", o.key)
	}
	if !o.timed {
		return
	}
	if fr := c.first[o.key]; fr != nil {
		if !fr.timed {
			fr.timed, fr.setupModel = true, res.SetupModelTime
		}
		w := warmIndex(res.PlanCacheHit)
		switch {
		case res.BatchSize != 1:
		case !fr.solo[w]:
			fr.solo[w], fr.soloModel[w] = true, res.SolveModelTime
		case math.Float64bits(fr.soloModel[w]) != math.Float64bits(res.SolveModelTime):
			c.wrong++
			c.note("job %d: solve_model_time %g differs from the key's first solo reply %g", o.key, res.SolveModelTime, fr.soloModel[w])
		}
	}
	c.completed++
	v := o.view
	var lat time.Duration
	if !o.due.IsZero() {
		lat = v.Finished.Sub(o.due)
	} else {
		lat = o.t2.Sub(o.t0)
	}
	c.submitMs = append(c.submitMs, ms(o.t1.Sub(o.t0)))
	c.overheadMs = append(c.overheadMs, ms(lat)-1e3*(v.QueueSeconds+v.RunSeconds))
	c.latMs = append(c.latMs, ms(lat))
	c.queueMs = append(c.queueMs, 1e3*v.QueueSeconds)
	c.runMs = append(c.runMs, 1e3*v.RunSeconds)
	if res.BatchSize > 0 {
		c.batchInv += 1 / float64(res.BatchSize)
	}
	if res.PlanCacheHit {
		c.hits++
	}
	c.perShard[o.shard]++
	if c.spans != nil {
		c.spans.job(o)
	}
}

// recordAll gates a phase's outcomes in order.
func (c *collector) recordAll(outs []outcome) {
	for _, o := range outs {
		c.record(o)
	}
}

// sameAnswer reports whether a reply repeats the reference answer bit
// for bit.
func sameAnswer(ref *firstReply, x []float64, iterations int) bool {
	if iterations != ref.iterations || len(x) != len(ref.x) {
		return false
	}
	for i := range ref.x {
		if math.Float64bits(x[i]) != math.Float64bits(ref.x[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// servedSetup returns the median setup_model_time of the prefix keys'
// first timed replies, and whether every prefix key had one.
func (c *collector) servedSetup() (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st []float64
	for k := 0; k < c.js.prefix; k++ {
		if fr := c.first[k]; fr != nil && fr.timed {
			st = append(st, fr.setupModel)
		}
	}
	if len(st) == 0 {
		return 0, false
	}
	return median(st), len(st) == c.js.prefix
}

// checkFingerprint compares the run's deterministic figures with those
// an earlier run of the same binary, workload and seed recorded, and
// records them for the next run. A mismatch is a failure of the run.
func checkFingerprint(dir, workload string, seed int64, vals map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	dir = filepath.Join(dir, "determinism")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", hex.EncodeToString(h.Sum(nil))[:16], workload, seed))
	bits := map[string]uint64{}
	for k, v := range vals {
		bits[k] = math.Float64bits(v)
	}
	var mismatches []string
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("fingerprint %s: %w", path, err)
		}
		for k, b := range bits {
			if p, ok := prev[k]; ok && p != b {
				mismatches = append(mismatches, fmt.Sprintf("%s: %g, earlier run %g", k, vals[k], math.Float64frombits(p)))
			}
		}
		for k, p := range prev {
			if _, ok := bits[k]; !ok {
				bits[k] = p // keep what the other run mode recorded
			}
		}
	}
	data, err := json.Marshal(bits)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		return fmt.Errorf("deterministic figures differ from an earlier run on seed %d: %v", seed, mismatches)
	}
	return nil
}

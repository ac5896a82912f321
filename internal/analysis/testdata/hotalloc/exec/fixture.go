// Fixture for the hotalloc analyzer, executor side: loaded by
// RunFixture under the import path ditto/internal/exec, so methods on
// Runner, SerialRunner, and DoorbellRunner are swept — and free helper
// functions are not.

package exec

type Plan interface{ Step() []int }

type Result struct{ Old uint64 }

type SerialRunner struct {
	free [][]Result
}

func (r *SerialRunner) Run(p Plan) {
	var res []Result
	if n := len(r.free); n > 0 {
		res, r.free = r.free[n-1][:0], r.free[:n-1] // free-list pop: no finding
	}
	res = append(res, Result{}) // append into pooled buffer: no finding
	r.free = append(r.free, res)
}

type DoorbellRunner struct {
	busy    bool
	batches map[uint64]int
}

func (r *DoorbellRunner) Run(plans []Plan) {
	defer func() { r.busy = false }() // want `function literal in hot function Run allocates its closure per call`
	if r.batches == nil {
		//dittolint:allow hotalloc (once-per-runner lazy init, not per call)
		r.batches = make(map[uint64]int)
	}
	res := make([]Result, len(plans)) // want `make in hot function Run allocates per call`
	_ = res
}

type Runner struct {
	Serial   SerialRunner
	Doorbell DoorbellRunner
}

func (r *Runner) RunPlans(p Plan) {
	rs := []Result{{}} // want `\[\]exec\.Result literal in hot function RunPlans allocates per call`
	_ = rs
	r.Serial.Run(p)
}

// issueAll is a free helper, not a runner method: not swept.
func issueAll(p Plan) {
	res := make([]Result, 4) // free function: no finding
	_ = res
}

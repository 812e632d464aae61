package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; metrics_test.go holds the two lists equal.
type metricDef struct{ name, unit string }

// endToEnd is what a user of a flow or of the service sees. Every workload
// reports every one of them (see BENCHMARK.json for their definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_cpu_s", "s"},
	{"flow_tail_cpu_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"hpwl", "units"},
	{"alloc_mb", "MB"},
}

// perLayer is what the traced run reports, per flow or per job. A layer a
// workload does not use reports 0.
var perLayer = []metricDef{
	{"netlist.read_s", "s"},
	{"netlist.write_s", "s"},
	{"netlist.bytes", "bytes"},
	{"place.global_s", "s"},
	{"place.setup_s", "s"},
	{"place.step_s", "s"},
	{"place.iterations", "count"},
	{"place.weight_s", "s"},
	{"place.gather_s", "s"},
	{"place.field_s", "s"},
	{"place.build_s", "s"},
	{"place.solve_pair_s", "s"},
	{"place.solve_x_s", "s"},
	{"place.solve_y_s", "s"},
	{"place.unattributed_s", "s"},
	{"place.unattributed_frac", "frac"},
	{"qp.nnz", "count"},
	{"sparse.cg_solves", "count"},
	{"sparse.cg_iters.jacobi", "count"},
	{"sparse.cg_iters.ic0", "count"},
	{"sparse.cg_nonconverged", "count"},
	{"sparse.solve_overlap", "ratio"},
	{"density.field_s.rfft", "s"},
	{"density.field_s.direct", "s"},
	{"legalize.total_s", "s"},
	{"legalize.assign_s", "s"},
	{"legalize.clump_s", "s"},
	{"legalize.detailed_s", "s"},
	{"legalize.swaps", "count"},
	{"legalize.max_disp", "units"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.result_s", "s"},
	{"serve.polls_per_job", "count"},
	{"serve.rejected", "count"},
	{"mem.heap_peak_mb", "MB"},
	{"mem.gc_cycles", "count"},
	{"mem.gc_pause_s", "s"},
	{"bench.self_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// metricJSON is one entry of the result line's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// writeResult prints the result line with exactly the metrics of defs,
// taking their values from vals. A missing or non-finite value is a bug in
// the benchmark, reported as an error, unless the run already failed a
// check; then it is written as 0.
func writeResult(w io.Writer, correct bool, attempted, failed int, defs []metricDef, vals map[string]float64) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if correct {
				return fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
			}
			v = 0
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

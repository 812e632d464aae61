package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
)

// serveSpec is a closed-loop workload against an in-process serve.Server
// with default settings, reached over loopback HTTP by one client, which
// submits a job, waits for it and fetches its result before the next. One
// job at a time lets the process's CPU time be charged to the job.
type serveSpec struct {
	designs            int // distinct designs in the job pool
	minCells, maxCells int // pool sizes, spread evenly
	// segment is how many jobs run between two calibration samples. It
	// divides designs.
	segment int
	// minJobs is the least number of jobs a run completes, so that the
	// latency tail is a p90 with ten samples beyond it. A run stops only
	// after a whole round of the pool, so every run does the same work.
	minJobs int
}

// roundsDone is the timed pass's stopping rule: at the end of a round, once
// at least minJobs ran, whichever round ends nearest to wall.
func (s serveSpec) roundsDone(wall time.Duration) func(int, time.Duration) bool {
	var lastEnd time.Duration
	return func(ran int, elapsed time.Duration) bool {
		if ran%s.designs != 0 {
			return false
		}
		round := elapsed - lastEnd
		lastEnd = elapsed
		return ran >= s.minJobs && elapsed+round/2 >= wall
	}
}

// poolJob is one design of the job pool, encoded as a POST /jobs body.
type poolJob struct {
	design
	body []byte
}

// jobPool generates the pool's designs: sizes spread evenly, netgen seeds
// derived from seed.
func jobPool(spec serveSpec, seed int64) ([]poolJob, error) {
	pool := make([]poolJob, spec.designs)
	for i := range pool {
		cells := spec.minCells + i*(spec.maxCells-spec.minCells)/(spec.designs-1)
		d, err := designText(fmt.Sprintf("job%d", i), cells, cells*4/3, rowsFor(cells), seed*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.SubmitRequest{Netlist: string(d.text)})
		if err != nil {
			return nil, fmt.Errorf("encode job %d: %w", i, err)
		}
		pool[i] = poolJob{design: d, body: body}
	}
	return pool, nil
}

// jobOrder is the submission sequence: rounds, each a seeded permutation of
// the pool, so every design repeats once per round.
func jobOrder(designs, rounds int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, designs*rounds)
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(designs)...)
	}
	return order
}

// jobOut is what one job produced. Traced runs also keep what the server
// reported about it.
type jobOut struct {
	design     int
	lat        time.Duration // POST /jobs until the result is read
	cpu        float64       // the process's CPU seconds meanwhile
	hpwl       float64       // of the returned placement
	iterations int
	polls      int // event-stream requests spent waiting
	rejected   bool
	outBytes   int
	status     serve.Status
	events     []serve.Event
	tree       obsv.SpanTree
}

// client is the closed-loop caller of the service.
type client struct {
	http *http.Client
	base string
}

// serveRun is one closed-loop pass: the jobs run, in sequence order.
type serveRun struct {
	jobs []jobOut
	errs []error
	wall time.Duration // the segments' time, without calibration
	cpu  float64       // the segments' CPU seconds
}

// runServe starts a server and runs the jobs of order through it, one
// segment at a time. After each segment it takes a calibration sample
// (with a calibrator) and asks stop, given the number of jobs run and the
// time since the start, whether to end; then the server shuts down.
func runServe(spec serveSpec, pool []poolJob, order []int, stop func(ran int, elapsed time.Duration) bool, tr *tracer, cal *calibrator) (serveRun, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was submitted
		return serveRun{}, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{}
	c := &client{http: &http.Client{Transport: tp, Timeout: 120 * time.Second}, base: "http://" + ln.Addr().String()}

	run := serveRun{jobs: make([]jobOut, len(order)), errs: make([]error, len(order))}
	start := time.Now()
	clk := startClock(cal)
	next := 0
	for next < len(order) {
		for end := min(next+spec.segment, len(order)); next < end; next++ {
			cpu0 := cpuTime(syscall.RUSAGE_SELF)
			run.jobs[next], run.errs[next] = c.run(pool, order[next], next+1, tr)
			run.jobs[next].cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
		}
		clk.split()
		if stop(next, time.Since(start)) {
			break
		}
	}
	run.wall, run.cpu = clk.wall, clk.cpu
	run.jobs, run.errs = run.jobs[:next], run.errs[:next]

	tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, srv.Shutdown(ctx))
	if err != nil {
		return run, fmt.Errorf("shut down server: %w", err)
	}
	return run, nil
}

// run submits one pool design, waits on its event stream until the job
// ends, fetches the result and checks it. With a tracer it also keeps the
// job's events, status and span tree, read after the latency is taken.
func (c *client) run(pool []poolJob, design, id int, tr *tracer) (jobOut, error) {
	out := jobOut{design: design}
	d := pool[design]
	t0 := time.Now()
	root := tr.start(id, 0, "job")
	jid, final, text, err := c.roundTrip(d.body, &out, id, root, tr)
	tr.end(root)
	out.lat = time.Since(t0)
	if err != nil {
		return out, err
	}
	if final.State != serve.StateDone {
		return out, fmt.Errorf("job %s ended %s", jid, final.State)
	}
	nl, err := checkResult(text, d.cells)
	if err != nil {
		return out, fmt.Errorf("job %s: %w", jid, err)
	}
	out.hpwl, out.iterations, out.outBytes = nl.HPWL(), final.Iter+1, len(text)
	if tr != nil {
		if err := c.getJSON("/jobs/"+jid, &out.status); err != nil {
			return out, err
		}
		if err := c.getJSON("/jobs/"+jid+"/trace", &out.tree); err != nil {
			return out, err
		}
	}
	return out, nil
}

// roundTrip is a job's requests from submit to result, each in a span
// under root.
func (c *client) roundTrip(body []byte, out *jobOut, id, root int, tr *tracer) (jid string, final serve.Event, text []byte, err error) {
	sp := tr.start(id, root, "serve.submit")
	jid, code, err := c.submit(body)
	tr.end(sp)
	if err != nil {
		out.rejected = code == http.StatusTooManyRequests
		return jid, final, nil, err
	}
	sp = tr.start(id, root, "serve.wait")
	final, out.events, out.polls, err = c.wait(jid, tr != nil)
	tr.end(sp)
	if err != nil {
		return jid, final, nil, err
	}
	sp = tr.start(id, root, "serve.result")
	text, err = c.result(jid)
	tr.end(sp)
	return jid, final, text, err
}

// submit posts a job and returns its ID, or the HTTP status it was refused
// with.
func (c *client) submit(body []byte) (string, int, error) {
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return "", resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", resp.StatusCode, fmt.Errorf("submit: decode response: %w", err)
	}
	return sr.ID, resp.StatusCode, nil
}

// maxPolls bounds the event-stream requests one job may take; the server
// ends a stream only at the job's end or when the connection drops.
const maxPolls = 16

// wait reads the job's event stream (SSE) until its final event, resuming
// after the last event seen if the stream breaks. keep retains the
// per-iteration events.
func (c *client) wait(id string, keep bool) (final serve.Event, events []serve.Event, polls int, err error) {
	from := 0
	for polls < maxPolls {
		polls++
		var done bool
		done, err = c.readEvents(fmt.Sprintf("%s/jobs/%s/events?from=%d", c.base, id, from), func(e serve.Event) {
			from = e.Seq + 1
			if e.Final {
				final = e
			} else if keep {
				events = append(events, e)
			}
		})
		if done {
			return final, events, polls, nil
		}
	}
	return final, events, polls, fmt.Errorf("job %s: no final event after %d stream requests (last error: %v)", id, polls, err)
}

// readEvents reads one event stream, handing each event to fn, and reports
// whether the final event arrived.
func (c *client) readEvents(url string, fn func(serve.Event)) (bool, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return false, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var e serve.Event
		if err := json.Unmarshal(data, &e); err != nil {
			return false, fmt.Errorf("events: decode: %w", err)
		}
		fn(e)
		if e.Final {
			// The server ends the stream after the final event; reading
			// to its end lets the connection be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return true, err
		}
	}
	return false, sc.Err()
}

// result fetches the job's placed netlist text.
func (c *client) result(id string) ([]byte, error) {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/result")
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("result: read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// getJSON decodes a GET response into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("get %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("get %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("get %s: decode: %w", path, err)
	}
	return nil
}

// serveLayers turns a traced pass into per-layer metrics, per job.
func serveLayers(run serveRun, spans []span, vals map[string]float64) {
	var n float64
	var queue, runT, iters, polls, outBytes float64
	var ph phaseSums
	for i, j := range run.jobs {
		if run.errs[i] != nil {
			continue
		}
		n++
		queue += j.status.StartedAt.Sub(j.status.SubmittedAt).Seconds()
		runT += j.status.FinishedAt.Sub(j.status.StartedAt).Seconds()
		iters += float64(j.iterations)
		polls += float64(j.polls)
		outBytes += float64(j.outBytes)
		for _, e := range j.events {
			ph.step += time.Duration(e.StepNS)
			ph.weight += time.Duration(e.WeightNS)
			ph.gather += time.Duration(e.GatherNS)
			ph.field += time.Duration(e.FieldNS)
			ph.build += time.Duration(e.BuildNS)
			ph.pair += time.Duration(e.SolveNS)
		}
		ph.x += phaseDur(j.tree.Root, "phase/solve-x")
		ph.y += phaseDur(j.tree.Root, "phase/solve-y")
	}
	per := func(d time.Duration) time.Duration { return time.Duration(ratio(float64(d), n)) }
	setPhases(vals, phaseSums{
		step: per(ph.step), weight: per(ph.weight), gather: per(ph.gather), field: per(ph.field),
		build: per(ph.build), pair: per(ph.pair), x: per(ph.x), y: per(ph.y),
	})
	tot := totals(spans)
	self := selfTimes(spans)
	vals["serve.submit_s"] = ratio(tot["serve.submit"].Seconds(), n)
	vals["serve.result_s"] = ratio(tot["serve.result"].Seconds(), n)
	vals["serve.queue_wait_s"] = ratio(queue, n)
	vals["serve.run_s"] = ratio(runT, n)
	vals["serve.polls_per_job"] = ratio(polls, n)
	vals["bench.self_s"] = ratio(self["job"].Seconds(), n)
	// The server runs New and Run back to back inside its run span, so
	// the run is the global placement and what the steps leave of it is
	// the placer's set-up.
	vals["place.global_s"] = vals["serve.run_s"]
	vals["place.setup_s"] = vals["serve.run_s"] - vals["place.step_s"]
	vals["place.iterations"] = ratio(iters, n)
	vals["netlist.bytes"] = ratio(outBytes, n)
}

// phaseDur finds the duration of the named span in a job's span tree.
func phaseDur(s obsv.SpanJSON, name string) time.Duration {
	if s.Name == name {
		return time.Duration(s.DurNS)
	}
	var d time.Duration
	for _, c := range s.Children {
		d += phaseDur(c, name)
	}
	return d
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/place"
)

// TestRequestCarriesEveryKnob: every place.Config knob has a SubmitRequest
// field of the same name, and a request that sets only that field's JSON
// key submits a job whose Config carries the value.
func TestRequestCarriesEveryKnob(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	text := netlistText(t, testNetlist(40, 3))
	rt := reflect.TypeOf(SubmitRequest{})
	for _, name := range place.Knobs() {
		rf, ok := rt.FieldByName(name)
		if !ok {
			t.Errorf("knob %s has no SubmitRequest field", name)
			continue
		}
		key, _, _ := strings.Cut(rf.Tag.Get("json"), ",")
		var want place.Config
		wv := reflect.ValueOf(&want).Elem().FieldByName(name)
		switch wv.Kind() {
		case reflect.Bool:
			wv.SetBool(true)
		case reflect.Int, reflect.Int64:
			wv.SetInt(1)
		case reflect.Float64:
			wv.SetFloat(0.5)
		default:
			t.Errorf("knob %s has kind %s; teach this test to set it", name, wv.Kind())
			continue
		}
		val := wv.Interface()
		if rf.Type.Kind() == reflect.String {
			val = fmt.Sprint(val) // enum knobs travel by name
		}
		body, err := json.Marshal(map[string]any{"netlist": text, key: val})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("knob %s: %q = %v answered %d", name, key, val, resp.StatusCode)
			continue
		}
		j, _ := s.Job(sr.ID)
		if got := reflect.ValueOf(j.cfg).FieldByName(name).Interface(); got != wv.Interface() {
			t.Errorf("knob %s: request key %q = %v reached the job's Config as %v", name, key, val, got)
		}
	}
}

// TestRequestFieldsAreKnobs: the request carries nothing beyond the
// netlist, the deadline and the knobs, so no key is decoded and ignored.
func TestRequestFieldsAreKnobs(t *testing.T) {
	knobs := place.Knobs()
	rt := reflect.TypeOf(SubmitRequest{})
	for i := range rt.NumField() {
		name := rt.Field(i).Name
		if name != "Netlist" && name != "DeadlineMS" && !slices.Contains(knobs, name) {
			t.Errorf("SubmitRequest.%s names no place.Config knob", name)
		}
	}
}

// nsTags returns the phase names of v's *_ns JSON tags, affixes stripped
// and underscores dashed.
func nsTags(v any) []string {
	rt := reflect.TypeOf(v)
	var out []string
	for i := range rt.NumField() {
		if tag, ok := strings.CutSuffix(rt.Field(i).Tag.Get("json"), "_ns"); ok {
			out = append(out, strings.ReplaceAll(strings.TrimPrefix(tag, "t_"), "_", "-"))
		}
	}
	return out
}

// collapseSolve folds the solve-x, solve-y and solve-pair phases into
// the one solve time an Event carries.
func collapseSolve(phases []string) []string {
	var out []string
	for _, k := range phases {
		if strings.HasPrefix(k, "solve-") {
			k = "solve"
		}
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// TestEventPhases: an Event carries every phase of place.PhaseKeys and of
// the IterStats it is projected from, with the three solve phases
// collapsed into one solve time (the pair's wall time), and eventFrom
// fills each from its IterStats counterpart.
func TestEventPhases(t *testing.T) {
	phases := nsTags(Event{})
	for _, src := range [][]string{place.PhaseKeys(), nsTags(place.IterStats{})} {
		if want := collapseSolve(src); !slices.Equal(phases, want) {
			t.Fatalf("Event phase fields %v, want %v", phases, want)
		}
	}

	var st place.IterStats
	sv := reflect.ValueOf(&st).Elem()
	for i, k := range nsTags(st) {
		sv.FieldByName("T" + kebabToCamel(k)).SetInt(int64(i + 1))
	}
	ev := reflect.ValueOf(eventFrom(st))
	for _, k := range phases {
		from := k
		if k == "solve" {
			from = "solve-pair"
		}
		got := ev.FieldByName(kebabToCamel(k) + "NS").Int()
		if exp := sv.FieldByName("T" + kebabToCamel(from)).Int(); got != exp {
			t.Errorf("eventFrom: %s_ns = %d, want t_%s_ns = %d", k, got, strings.ReplaceAll(from, "-", "_"), exp)
		}
	}
}

// kebabToCamel renders a phase key as a Go field-name stem: "solve-pair"
// → "SolvePair", "solve-x" → "SolveX".
func kebabToCamel(k string) string {
	var b strings.Builder
	for _, part := range strings.Split(k, "-") {
		b.WriteString(strings.ToUpper(part[:1]) + part[1:])
	}
	return b.String()
}

// TestWaterfallPhases: a run span's waterfall has one child per phase
// except solve-pair (the x and y solves are already listed) and step (the
// run span itself), in PhaseKeys order.
func TestWaterfallPhases(t *testing.T) {
	var got, want []string
	for _, ph := range waterfall(place.PhaseTotals{}) {
		got = append(got, strings.TrimPrefix(ph.name, "phase/"))
	}
	for _, k := range place.PhaseKeys() {
		if k != "solve-pair" && k != "step" {
			want = append(want, k)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("waterfall phases %v, want %v", got, want)
	}

	var tot place.PhaseTotals
	tv := reflect.ValueOf(&tot).Elem()
	for i := range tv.NumField() {
		tv.Field(i).SetInt(int64(i + 1))
	}
	for _, ph := range waterfall(tot) {
		k := strings.TrimPrefix(ph.name, "phase/")
		if exp := time.Duration(tv.FieldByName(kebabToCamel(k)).Int()); ph.d != exp {
			t.Errorf("waterfall %s = %v, want PhaseTotals.%s = %v", ph.name, ph.d, kebabToCamel(k), exp)
		}
	}
}

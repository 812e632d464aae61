package main

import (
	"flag"
	"reflect"
	"testing"

	"repro/internal/place"
)

// TestKnobFlags: every place.Config knob has a kplace flag that sets it,
// and knobFlags registers nothing else.
func TestKnobFlags(t *testing.T) {
	flagFor := map[string]struct{ name, value string }{
		"K":                {"k", "0.7"},
		"MaxIter":          {"maxiter", "7"},
		"GridBins":         {"gridbins", "64"},
		"NoLinearize":      {"nolinearize", "true"},
		"NetModel":         {"netmodel", "star"},
		"KeepPlacement":    {"keep", "true"},
		"StopSquareFactor": {"stopsq", "6"},
	}
	parse := func(args ...string) (place.Config, *flag.FlagSet) {
		fs := flag.NewFlagSet("kplace", flag.ContinueOnError)
		build := knobFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return cfg, fs
	}
	def, fs := parse()
	flags := map[string]bool{}
	for _, name := range place.Knobs() {
		f, ok := flagFor[name]
		if !ok || fs.Lookup(f.name) == nil {
			t.Errorf("knob %s has no kplace flag", name)
			continue
		}
		flags[f.name] = true
		cfg, _ := parse("-" + f.name + "=" + f.value)
		if reflect.ValueOf(cfg).FieldByName(name).Interface() == reflect.ValueOf(def).FieldByName(name).Interface() {
			t.Errorf("-%s=%s does not set knob %s", f.name, f.value, name)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !flags[f.Name] {
			t.Errorf("knobFlags registers -%s, which sets no knob", f.Name)
		}
	})
}

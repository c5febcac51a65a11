package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/api"
)

// TestSpecFlagsBindEverySpecField walks the campaign spec: every field but
// Artifacts (a directory locally, a bool on submit) must be set by exactly
// one flag of specFlags, so a new spec field without a flag fails here.
func TestSpecFlagsBindEverySpecField(t *testing.T) {
	parse := func(args ...string) (api.CampaignSpec, error) {
		var spec api.CampaignSpec
		fs := flag.NewFlagSet("probe", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		specFlags(fs, &spec)
		return spec, fs.Parse(args)
	}
	var names []string
	probe := flag.NewFlagSet("probe", flag.ContinueOnError)
	specFlags(probe, &api.CampaignSpec{})
	probe.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })

	typ := reflect.TypeOf(api.CampaignSpec{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Name == "Artifacts" {
			continue
		}
		var value string
		switch {
		case field.Type == reflect.TypeOf(time.Duration(0)):
			value = "7s"
		case field.Type.Kind() == reflect.String:
			value = "delay"
		case field.Type.Kind() == reflect.Bool:
			value = "true"
		default:
			value = "7"
		}
		var bound []string
		for _, name := range names {
			spec, err := parse("-"+name, value)
			if err == nil && !reflect.ValueOf(spec).Field(i).IsZero() {
				bound = append(bound, name)
			}
		}
		if len(bound) != 1 {
			t.Errorf("spec field %s is set by flags %v, want exactly one", field.Name, bound)
		}
	}

	spec, err := parse("-mode", "PMRace")
	if err != nil || spec.Mode != "pmrace" {
		t.Fatalf("-mode PMRace decodes to %q (%v), want pmrace", spec.Mode, err)
	}
}

package main

import (
	"reflect"
	"testing"
)

func TestParseLevels(t *testing.T) {
	got, err := parseLevels(" 1, 5,,10 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.01, 0.05, 0.1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseLevels = %v, want %v", got, want)
	}
	// NaN fails every ordered comparison, so it must be rejected
	// explicitly rather than run as a "nan" loss row with zero losses.
	for _, bad := range []string{"NaN", "5,nan", "+Inf", "-Inf", "-1", "101", "", "x"} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("parseLevels(%q) accepted it", bad)
		}
	}
}

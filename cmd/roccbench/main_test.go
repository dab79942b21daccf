package main

import (
	"strings"
	"testing"
)

// -policy is accepted only with an experiment that reads it, and the
// refusal names the experiments that do.
func TestCheckPolicy(t *testing.T) {
	for _, ids := range [][]string{{"ext-adaptive-bf"}, {"fig19", "ext-adaptive-bf"}} {
		if err := checkPolicy(ids); err != nil {
			t.Errorf("%v: %v", ids, err)
		}
	}
	for _, ids := range [][]string{{"fig19"}, {"table4", "fig17"}, {"no-such-experiment"}, nil} {
		err := checkPolicy(ids)
		if err == nil {
			t.Errorf("%v: -policy accepted with no experiment that reads it", ids)
			continue
		}
		if !strings.Contains(err.Error(), "ext-adaptive-bf") {
			t.Errorf("%v: error %q does not name ext-adaptive-bf", ids, err)
		}
	}
}

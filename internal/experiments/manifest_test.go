package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
)

var update = flag.Bool("update", false, "re-record testdata/manifest.txt from the current outputs")

const manifestPath = "testdata/manifest.txt"

// wallClock lists the experiments whose output depends on wall time: the
// measured testbed (fig30, fig31, table7, table8) and the two that time
// the simulator itself. The manifest leaves them out.
var wallClock = map[string]bool{
	"ablation-eventqueue": true,
	"ext-cluster":         true,
	"fig30":               true,
	"fig31":               true,
	"table7":              true,
	"table8":              true,
}

// manifestOptions is the reduced scale every manifest entry is recorded
// at.
func manifestOptions() Options {
	return Options{Seed: 1, DurationUS: 0.2e6, Reps: 2}
}

// TestArtifactManifest pins what every deterministic registered
// experiment prints: its SHA-256 and byte length at manifestOptions, in
// testdata/manifest.txt. Each experiment runs once under the heap
// calendar and once under the bucket calendar, and the two outputs must
// be equal, so the "same bytes at any calendar" contract covers every
// artifact. The heap run of an experiment that does not read
// Options.Policy (Experiment.ReadsPolicy) also carries a policy override,
// so the same comparison holds it to ignoring one, as roccbench -policy
// assumes. A change that alters an artifact on purpose re-records the
// manifest with
//
//	go test ./internal/experiments -run TestArtifactManifest -update
//
// and lists each changed entry. Other architectures may fuse
// floating-point operations differently, so the manifest is amd64-only.
func TestArtifactManifest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the manifest is recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	var got strings.Builder
	for _, id := range IDs() {
		if wallClock[id] {
			continue
		}
		e, _ := ByID(id)
		var outs [2][]byte
		for i, cal := range []des.CalendarKind{des.CalendarHeap, des.CalendarBucket} {
			opt := manifestOptions()
			opt.Calendar = cal
			if cal == des.CalendarHeap && !e.ReadsPolicy {
				opt.Policy = forward.NewFixedBF(3)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatalf("%s (%s calendar): %v", id, cal, err)
			}
			outs[i] = buf.Bytes()
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%s: heap and bucket calendars print different bytes (the heap run with a policy override, unless the experiment reads it)", id)
		}
		sum := sha256.Sum256(outs[0])
		fmt.Fprintf(&got, "%s %s %d\n", id, hex.EncodeToString(sum[:]), len(outs[0]))
	}

	if *update {
		if err := os.WriteFile(manifestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := manifestEntries(string(want))
	gotLines := manifestEntries(got.String())
	for id, g := range gotLines {
		switch w, ok := wantLines[id]; {
		case !ok:
			t.Errorf("%s: not in the manifest; got %s", id, g)
		case w != g:
			t.Errorf("%s: got %s, manifest has %s", id, g, w)
		}
	}
	for id := range wantLines {
		if _, ok := gotLines[id]; !ok {
			t.Errorf("%s: in the manifest but not a deterministic registered experiment", id)
		}
	}
}

// manifestEntries maps each experiment id to its "sha256 bytes" entry.
func manifestEntries(s string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if id, rest, ok := strings.Cut(sc.Text(), " "); ok {
			out[id] = rest
		}
	}
	return out
}
